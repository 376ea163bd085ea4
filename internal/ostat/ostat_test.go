package ostat

import (
	"math/rand"
	"sort"
	"testing"
)

// reference is a trivially correct order-statistic multiset.
type reference struct {
	values []float64
}

func (r *reference) insert(v float64) {
	i := sort.SearchFloat64s(r.values, v)
	r.values = append(r.values, 0)
	copy(r.values[i+1:], r.values[i:])
	r.values[i] = v
}

func (r *reference) delete(v float64) bool {
	i := sort.SearchFloat64s(r.values, v)
	if i < len(r.values) && r.values[i] == v {
		r.values = append(r.values[:i], r.values[i+1:]...)
		return true
	}
	return false
}

func TestMultisetBasics(t *testing.T) {
	m := New(1)
	if m.Len() != 0 {
		t.Fatal("new multiset not empty")
	}
	if _, ok := m.Select(1); ok {
		t.Fatal("Select on empty should fail")
	}
	for _, v := range []float64{5, 3, 8, 3, 1} {
		m.Insert(v)
	}
	if m.Len() != 5 {
		t.Fatalf("Len = %d", m.Len())
	}
	want := []float64{1, 3, 3, 5, 8}
	for k, w := range want {
		got, ok := m.Select(k + 1)
		if !ok || got != w {
			t.Errorf("Select(%d) = %g ok=%v, want %g", k+1, got, ok, w)
		}
	}
	if _, ok := m.Select(0); ok {
		t.Error("Select(0) should fail")
	}
	if _, ok := m.Select(6); ok {
		t.Error("Select(6) should fail")
	}
	if min, _ := m.Min(); min != 1 {
		t.Error("Min")
	}
	if max, _ := m.Max(); max != 8 {
		t.Error("Max")
	}
	if got := m.Rank(3); got != 1 {
		t.Errorf("Rank(3) = %d, want 1 (strictly less)", got)
	}
	if got := m.Rank(4); got != 3 {
		t.Errorf("Rank(4) = %d, want 3", got)
	}
}

func TestMultisetDelete(t *testing.T) {
	m := New(2)
	for _, v := range []float64{2, 2, 7} {
		m.Insert(v)
	}
	if !m.Delete(2) {
		t.Fatal("Delete(2) failed")
	}
	if m.Len() != 2 {
		t.Fatalf("Len after delete = %d", m.Len())
	}
	if v, _ := m.Select(1); v != 2 {
		t.Errorf("duplicate not retained: %g", v)
	}
	if m.Delete(99) {
		t.Error("Delete of absent value should report false")
	}
	if !m.Delete(2) || !m.Delete(7) {
		t.Fatal("remaining deletes failed")
	}
	if m.Len() != 0 {
		t.Fatal("not empty after deleting everything")
	}
}

func TestMultisetInOrder(t *testing.T) {
	m := New(3)
	vals := []float64{4, 1, 4, 9}
	for _, v := range vals {
		m.Insert(v)
	}
	var walked []float64
	m.InOrder(func(v float64) bool {
		walked = append(walked, v)
		return true
	})
	want := []float64{1, 4, 4, 9}
	if len(walked) != len(want) {
		t.Fatalf("walked %v", walked)
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("walked %v, want %v", walked, want)
		}
	}
	// Early stop.
	count := 0
	m.InOrder(func(v float64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestMultisetAgainstReferenceRandomOps(t *testing.T) {
	m := New(4)
	ref := &reference{}
	rng := rand.New(rand.NewSource(99))
	live := []float64{}
	for op := 0; op < 20000; op++ {
		switch {
		case len(live) == 0 || rng.Float64() < 0.6:
			// Coarse values force duplicate handling.
			v := float64(rng.Intn(200))
			m.Insert(v)
			ref.insert(v)
			live = append(live, v)
		default:
			i := rng.Intn(len(live))
			v := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			g1 := m.Delete(v)
			g2 := ref.delete(v)
			if g1 != g2 {
				t.Fatalf("op %d: Delete(%g) = %v, ref %v", op, v, g1, g2)
			}
		}
		if m.Len() != len(ref.values) {
			t.Fatalf("op %d: Len %d vs %d", op, m.Len(), len(ref.values))
		}
		if m.Len() > 0 {
			k := rng.Intn(m.Len()) + 1
			got, ok := m.Select(k)
			if !ok || got != ref.values[k-1] {
				t.Fatalf("op %d: Select(%d) = %g ok=%v, want %g", op, k, got, ok, ref.values[k-1])
			}
			probe := float64(rng.Intn(220) - 10)
			if got, want := m.Rank(probe), sort.SearchFloat64s(ref.values, probe); got != want {
				t.Fatalf("op %d: Rank(%g) = %d, want %d", op, probe, got, want)
			}
		}
	}
}

func TestMultisetClear(t *testing.T) {
	m := New(5)
	for i := 0; i < 100; i++ {
		m.Insert(float64(i))
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatal("Clear did not empty the multiset")
	}
	m.Insert(1)
	if v, ok := m.Select(1); !ok || v != 1 {
		t.Fatal("multiset unusable after Clear")
	}
}

func TestMultisetDeterministicStructure(t *testing.T) {
	// Same seed and operations yield identical selections (reproducible
	// evaluation runs depend on this).
	build := func() []float64 {
		m := New(42)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1000; i++ {
			m.Insert(rng.Float64())
		}
		out := make([]float64, 0, 10)
		for k := 100; k <= 1000; k += 100 {
			v, _ := m.Select(k)
			out = append(out, v)
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("structure not deterministic")
		}
	}
}

func BenchmarkMultisetInsert(b *testing.B) {
	m := New(1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(rng.Float64())
	}
}

func BenchmarkMultisetSelect(b *testing.B) {
	m := New(1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		m.Insert(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Select(95000)
	}
}

// TestArenasSizedToContents: a new multiset holds just its one live leaf,
// and BuildFromSorted reserves exactly the nodes it packs — a registry
// keeps one multiset per stream, so unused arena slots multiply.
func TestArenasSizedToContents(t *testing.T) {
	if m := New(1); cap(m.leaves) != 1 || cap(m.inners) != 0 {
		t.Fatalf("New: leaf cap %d, inner cap %d; want 1 and 0", cap(m.leaves), cap(m.inners))
	}
	for _, n := range []int{0, 1, 48, 49, 64, 500, 48 * 24, 48*24 + 1, 100000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i / 2) // pairs of duplicates
		}
		var m Multiset // BuildFromSorted readies a zero value
		m.BuildFromSorted(vals)
		if len(m.leaves) != cap(m.leaves) || len(m.inners) != cap(m.inners) {
			t.Errorf("n=%d: arenas len/cap leaves %d/%d inners %d/%d, want exact",
				n, len(m.leaves), cap(m.leaves), len(m.inners), cap(m.inners))
		}
		if m.Len() != n {
			t.Fatalf("n=%d: Len %d", n, m.Len())
		}
		for k := 1; k <= n; k += 1 + n/7 {
			if v, ok := m.Select(k); !ok || v != vals[k-1] {
				t.Fatalf("n=%d: Select(%d) = %g, want %g", n, k, v, vals[k-1])
			}
		}
		// Rebuilding smaller keeps the capacity instead of reallocating.
		leaves := cap(m.leaves)
		m.BuildFromSorted(vals[:n/2])
		if cap(m.leaves) != leaves {
			t.Errorf("n=%d: rebuild reallocated the leaf arena (%d -> %d)", n, leaves, cap(m.leaves))
		}
	}
}
