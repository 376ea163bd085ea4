package ostat

import (
	"sort"
	"testing"
)

// FuzzMultisetOracle interleaves every mutation and query the multiset
// offers and checks each answer against a sorted-slice oracle. The bulk
// operations grow trees past one inner level (leaf and inner splits) and
// drain them again (cascading unlinks, free-list reuse, root collapse), and
// BuildFromSorted lands on arenas of every prior size.
//
// Input bytes are consumed as a program: one opcode byte, then its
// operands. Running out of bytes ends the program.
func FuzzMultisetOracle(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 0, 5, 3, 1, 4, 7, 1, 0})
	f.Add([]byte{7, 255, 1, 7, 255, 2, 8, 255, 3, 3, 9, 4, 200, 8, 255, 4, 8, 255, 5})
	f.Add([]byte{6, 200, 7, 8, 150, 1, 7, 100, 2, 6, 3, 9, 8, 255, 2, 5, 6, 255, 1, 8, 255, 1})
	f.Add([]byte{6, 255, 3, 5, 7, 9, 0, 1, 0, 2, 6, 0, 0, 3, 0, 2, 0, 7})
	f.Add([]byte{6, 255, 8, 250, 7, 255, 3, 77, 8, 3, 7, 200, 9, 0, 8, 255, 8, 255, 8, 255, 7, 9, 4, 5})
	f.Add([]byte{7, 255, 7, 254, 7, 253, 8, 255, 8, 255, 8, 0, 7, 250, 3, 100, 8, 255, 8, 255, 8, 255, 8, 255, 9, 1})
	f.Add([]byte{6, 255, 8, 200, 255, 8, 200, 255, 7, 255, 7, 254, 7, 253, 7, 252, 3, 9, 4, 77, 9, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := New(0)
		ref := &reference{}
		next := func() (byte, bool) {
			if len(prog) == 0 {
				return 0, false
			}
			b := prog[0]
			prog = prog[1:]
			return b, true
		}
		// lcg spreads a seed over a 4096-value domain: wide enough for
		// multi-level trees, narrow enough to force duplicate entries.
		lcg := func(seed *uint32) float64 {
			*seed = *seed*1664525 + 1013904223
			return float64(*seed >> 20)
		}
		for step := 0; ; step++ {
			op, ok := next()
			if !ok {
				break
			}
			arg, ok := next()
			if !ok {
				break
			}
			switch op % 10 {
			case 0: // insert one value
				hi, _ := next()
				v := float64(int(hi)<<8 | int(arg))
				m.Insert(v)
				ref.insert(v)
			case 1: // delete one present value
				if len(ref.values) > 0 {
					v := ref.values[int(arg)%len(ref.values)]
					if !m.Delete(v) || !ref.delete(v) {
						t.Fatalf("step %d: Delete(%g) of a present value failed", step, v)
					}
				}
			case 2: // delete a value that may be absent
				v := float64(arg) + 0.5*float64(arg%2)
				if got, want := m.Delete(v), ref.delete(v); got != want {
					t.Fatalf("step %d: Delete(%g) = %v, oracle %v", step, v, got, want)
				}
			case 3: // select
				k := int(arg) % (len(ref.values) + 2)
				got, ok := m.Select(k)
				if want := k >= 1 && k <= len(ref.values); ok != want {
					t.Fatalf("step %d: Select(%d) ok=%v, want %v", step, k, ok, want)
				}
				if ok && got != ref.values[k-1] {
					t.Fatalf("step %d: Select(%d) = %g, want %g", step, k, got, ref.values[k-1])
				}
			case 4: // rank
				probe := float64(int(arg)*17) - 10
				if got, want := m.Rank(probe), sort.SearchFloat64s(ref.values, probe); got != want {
					t.Fatalf("step %d: Rank(%g) = %d, want %d", step, probe, got, want)
				}
			case 5: // clear
				m.Clear()
				ref.values = ref.values[:0]
			case 6: // rebuild from a sorted batch
				seed := uint32(arg)
				n := int(arg) * 8
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = lcg(&seed)
				}
				sort.Float64s(vals)
				m.BuildFromSorted(vals)
				ref.values = append(ref.values[:0], vals...)
			case 7: // bulk insert
				seed := uint32(arg) * 7919
				for i := 0; i < int(arg)*4; i++ {
					v := lcg(&seed)
					m.Insert(v)
					ref.insert(v)
				}
			case 8: // delete a contiguous run at a relative position: empties
				// whole leaves, and at the top whole inner nodes
				at, _ := next()
				for i := 0; i < int(arg)*4 && len(ref.values) > 0; i++ {
					v := ref.values[(len(ref.values)-1)*int(at)/255]
					if !m.Delete(v) || !ref.delete(v) {
						t.Fatalf("step %d: bulk Delete(%g) failed", step, v)
					}
				}
			case 9: // min and max
				lo, okLo := m.Min()
				hi, okHi := m.Max()
				if n := len(ref.values); okLo != (n > 0) || okHi != (n > 0) || (n > 0 && (lo != ref.values[0] || hi != ref.values[n-1])) {
					t.Fatalf("step %d: Min/Max = %g/%g (%v/%v) over %d values", step, lo, hi, okLo, okHi, n)
				}
			}
			if m.Len() != len(ref.values) {
				t.Fatalf("step %d (op %d): Len %d, oracle %d", step, op%10, m.Len(), len(ref.values))
			}
		}
		i := 0
		m.InOrder(func(v float64) bool {
			if i >= len(ref.values) || v != ref.values[i] {
				t.Fatalf("InOrder position %d = %g diverges from the oracle", i, v)
			}
			i++
			return true
		})
		if i != len(ref.values) {
			t.Fatalf("InOrder visited %d values, oracle holds %d", i, len(ref.values))
		}
	})
}
