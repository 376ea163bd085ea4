package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestMarshalRoundTrip(t *testing.T) {
	orig := New(Config{Quantile: 0.9, Confidence: 0.99, MaxHistory: 5000, Seed: 7})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		orig.ObserveAuto(math.Exp(2 * rng.NormFloat64()))
	}
	origBound, origOK := orig.Bound()

	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.HistoryLen() != orig.HistoryLen() {
		t.Fatalf("history %d vs %d", restored.HistoryLen(), orig.HistoryLen())
	}
	if restored.Trims() != orig.Trims() {
		t.Errorf("trims %d vs %d", restored.Trims(), orig.Trims())
	}
	if restored.RareThreshold() != orig.RareThreshold() {
		t.Errorf("rare threshold %d vs %d", restored.RareThreshold(), orig.RareThreshold())
	}
	gotBound, gotOK := restored.Bound()
	if gotOK != origOK || gotBound != origBound {
		t.Fatalf("bound %g/%v vs %g/%v", gotBound, gotOK, origBound, origOK)
	}
	// The restored predictor keeps evolving identically on the upper
	// bound path: same history + same config means same future bounds.
	future := []float64{3, 99, 0.5, 12}
	for _, v := range future {
		orig.Observe(v, false)
		restored.Observe(v, false)
	}
	b1, _ := orig.Bound()
	b2, _ := restored.Bound()
	if b1 != b2 {
		t.Fatalf("post-restore divergence: %g vs %g", b1, b2)
	}
	cfg := restored.Config()
	if cfg.Quantile != 0.9 || cfg.Confidence != 0.99 || cfg.MaxHistory != 5000 {
		t.Errorf("config not restored: %+v", cfg)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	b := New(Config{})
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE1234"),
		[]byte("BMBP"),         // truncated after magic
		[]byte("BMBP\x09\x00"), // unsupported version
	}
	for i, blob := range cases {
		if err := b.UnmarshalBinary(blob); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncated mid-history.
	good := New(Config{})
	for i := 0; i < 100; i++ {
		good.Observe(float64(i), false)
	}
	blob, _ := good.MarshalBinary()
	if err := b.UnmarshalBinary(blob[:len(blob)-4]); err == nil {
		t.Error("truncated history accepted")
	}
	// Corrupt quantile.
	blob2, _ := good.MarshalBinary()
	for i := 6; i < 14; i++ {
		blob2[i] = 0xFF
	}
	if err := b.UnmarshalBinary(blob2); err == nil {
		t.Error("corrupt quantile accepted")
	}
}

func TestMarshalEmptyPredictor(t *testing.T) {
	orig := New(Config{})
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.HistoryLen() != 0 {
		t.Error("empty predictor restored with history")
	}
	if _, ok := restored.Bound(); ok {
		t.Error("empty predictor has a bound")
	}
}

// reflectiveMarshal is the original binary.Write encoder of the state
// format, kept as the reference the fixed-width encoder must match byte
// for byte.
func reflectiveMarshal(b *BMBP) []byte {
	var buf bytes.Buffer
	buf.WriteString(marshalMagic)
	w := func(v interface{}) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w(uint16(marshalVersion))
	w(b.cfg.Quantile)
	w(b.cfg.Confidence)
	w(int32(b.cfg.Mode))
	w(b.cfg.NoTrim)
	w(int64(b.cfg.FixedRareThreshold))
	w(int64(b.cfg.MaxHistory))
	w(b.cfg.Seed)
	w(int64(b.rareThreshold))
	w(int64(b.consecMisses))
	w(int64(b.trims))
	w(int64(b.observations))
	w(int64(len(b.cfg.RareTable)))
	for _, e := range b.cfg.RareTable {
		w(e.MaxAutocorr)
		w(int64(e.Threshold))
	}
	win := b.window()
	w(int64(len(win)))
	for _, v := range win {
		w(v)
	}
	return buf.Bytes()
}

// TestMarshalMatchesReflectiveEncoding pins the state format: the
// fixed-width encoder writes exactly what the reflective one did, into a
// buffer sized exactly, and a restore into a zero BMBP re-encodes to the
// same bytes.
func TestMarshalMatchesReflectiveEncoding(t *testing.T) {
	custom := RareEventTable{{MaxAutocorr: 0.5, Threshold: 4}, {MaxAutocorr: 2, Threshold: 9}}
	cfgs := []Config{
		{},
		{Quantile: 0.9, Confidence: 0.99, Mode: ModeExact, MaxHistory: 300, Seed: -3},
		{NoTrim: true, FixedRareThreshold: 5, RareTable: custom, Seed: 1 << 40},
		{RareTable: RareEventTable{}},
	}
	rng := rand.New(rand.NewSource(3))
	for i, cfg := range cfgs {
		b := New(cfg)
		for n := 0; n < 900; n++ {
			blob, err := b.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if want := reflectiveMarshal(b); !bytes.Equal(blob, want) {
				t.Fatalf("config %d after %d observations: encoding differs from the reference", i, n)
			}
			if len(blob) != cap(blob) {
				t.Fatalf("config %d: encode buffer len %d cap %d, want exact", i, len(blob), cap(blob))
			}
			if n%97 == 0 {
				var r BMBP
				if err := r.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				again, _ := r.MarshalBinary()
				if !bytes.Equal(again, blob) {
					t.Fatalf("config %d: restore did not re-encode byte-identically", i)
				}
			}
			b.ObserveAuto(math.Exp(2 * rng.NormFloat64()))
		}
	}
}

// TestUnmarshalFailureLeavesReceiver: a rejected blob changes nothing.
func TestUnmarshalFailureLeavesReceiver(t *testing.T) {
	b := New(Config{Quantile: 0.9})
	for i := 0; i < 100; i++ {
		b.Observe(float64(i), false)
	}
	before, _ := b.MarshalBinary()
	if err := b.UnmarshalBinary(before[:len(before)-3]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	after, _ := b.MarshalBinary()
	if !bytes.Equal(before, after) {
		t.Fatal("failed restore modified the receiver")
	}
}
