package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/ostat"
)

// Binary state serialization, so a deployed predictor can survive process
// restarts without retraining: the paper's deployment model feeds the
// predictor five-minute scheduler-log dumps, and losing a year of history
// to a restart would reset the bound to its minimum-history conservatism.
//
// The format is versioned and self-contained: configuration, calibration
// state, and the observation-ordered history (the order statistics are
// rebuilt on load).

const (
	marshalMagic   = "BMBP"
	marshalVersion = 1
)

// MarshalBinary encodes the predictor's full state.
func (b *BMBP) MarshalBinary() ([]byte, error) {
	// Fixed part: magic, version, config (45 bytes), calibration, and the
	// two length prefixes.
	const fixedLen = len(marshalMagic) + 2 + 45 + 4*8 + 8 + 8
	win := b.window()
	buf := make([]byte, 0, fixedLen+16*len(b.cfg.RareTable)+8*len(win))
	buf = append(buf, marshalMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, marshalVersion)
	buf = appendF64(buf, b.cfg.Quantile)
	buf = appendF64(buf, b.cfg.Confidence)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(b.cfg.Mode)))
	noTrim := byte(0)
	if b.cfg.NoTrim {
		noTrim = 1
	}
	buf = append(buf, noTrim)
	buf = appendI64(buf, int64(b.cfg.FixedRareThreshold))
	buf = appendI64(buf, int64(b.cfg.MaxHistory))
	buf = appendI64(buf, b.cfg.Seed)

	buf = appendI64(buf, int64(b.rareThreshold))
	buf = appendI64(buf, int64(b.consecMisses))
	buf = appendI64(buf, int64(b.trims))
	buf = appendI64(buf, int64(b.observations))

	buf = appendI64(buf, int64(len(b.cfg.RareTable)))
	for _, e := range b.cfg.RareTable {
		buf = appendF64(buf, e.MaxAutocorr)
		buf = appendI64(buf, int64(e.Threshold))
	}
	buf = appendI64(buf, int64(len(win)))
	for _, v := range win {
		buf = appendF64(buf, v)
	}
	return buf, nil
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendI64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// decoder reads the fixed-width little-endian fields MarshalBinary writes.
// A read past the end sets short and yields zero; callers check short once
// per group of fields.
type decoder struct {
	b     []byte
	short bool
}

func (d *decoder) take(n int) []byte {
	if n < 0 || len(d.b) < n {
		d.short = true
		d.b = nil
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// UnmarshalBinary restores a predictor serialized by MarshalBinary,
// replacing the receiver's state entirely. The receiver may be a zero
// BMBP: every field is rebuilt from the blob, so restore paths need not
// construct a default predictor first. On error the receiver is left
// unchanged.
func (b *BMBP) UnmarshalBinary(data []byte) error {
	if len(data) < len(marshalMagic) || string(data[:len(marshalMagic)]) != marshalMagic {
		return fmt.Errorf("core: not a BMBP state blob")
	}
	d := decoder{b: data[len(marshalMagic):]}
	ver := d.take(2)
	if d.short {
		return fmt.Errorf("core: truncated state: %v", io.ErrUnexpectedEOF)
	}
	if version := binary.LittleEndian.Uint16(ver); version != marshalVersion {
		return fmt.Errorf("core: unsupported state version %d", version)
	}

	var cfg Config
	cfg.Quantile = d.f64()
	cfg.Confidence = d.f64()
	var mode uint32
	if p := d.take(4); p != nil {
		mode = binary.LittleEndian.Uint32(p)
	}
	if p := d.take(1); p != nil {
		cfg.NoTrim = p[0] != 0
	}
	cfg.FixedRareThreshold = int(d.i64())
	cfg.MaxHistory = int(d.i64())
	cfg.Seed = d.i64()
	if d.short {
		return fmt.Errorf("core: truncated config: %v", io.ErrUnexpectedEOF)
	}
	cfg.Mode = BoundMode(int32(mode))
	// Written as positive conditions so NaN (all comparisons false) is
	// rejected too.
	if !(cfg.Quantile > 0 && cfg.Quantile < 1 && cfg.Confidence > 0 && cfg.Confidence < 1) {
		return fmt.Errorf("core: corrupt state: quantile %g confidence %g", cfg.Quantile, cfg.Confidence)
	}

	rareThreshold, consecMisses, trims, observations := d.i64(), d.i64(), d.i64(), d.i64()
	if d.short {
		return fmt.Errorf("core: truncated calibration: %v", io.ErrUnexpectedEOF)
	}

	tableLen := d.i64()
	if d.short {
		return fmt.Errorf("core: truncated table: %v", io.ErrUnexpectedEOF)
	}
	if tableLen < 0 || tableLen > 1024 {
		return fmt.Errorf("core: corrupt table length %d", tableLen)
	}
	table := make(RareEventTable, tableLen)
	for i := range table {
		table[i].MaxAutocorr = d.f64()
		table[i].Threshold = int(d.i64())
	}
	if d.short {
		return fmt.Errorf("core: truncated table entry: %v", io.ErrUnexpectedEOF)
	}
	// Most predictors run the default table: share it instead of keeping
	// a private copy per restored stream.
	if slices.Equal(table, DefaultRareEventTable) {
		table = DefaultRareEventTable
	}
	cfg.RareTable = table

	histLen := d.i64()
	if d.short {
		return fmt.Errorf("core: truncated history length: %v", io.ErrUnexpectedEOF)
	}
	if histLen < 0 || histLen > 1<<31 {
		return fmt.Errorf("core: corrupt history length %d", histLen)
	}
	raw := d.take(8 * int(histLen))
	if d.short {
		return fmt.Errorf("core: truncated history: %v", io.ErrUnexpectedEOF)
	}
	hist := make([]float64, histLen)
	sorted := make([]float64, histLen)
	for i := range hist {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(v) || v < 0 {
			return fmt.Errorf("core: corrupt history value %g", v)
		}
		hist[i], sorted[i] = v, v
	}

	// Rebuild derived structures. The order statistics come back via an
	// O(n) bulk build from a sorted copy rather than n re-inserts, into a
	// multiset whose arenas are sized to exactly what the build packs.
	sort.Float64s(sorted)
	set := new(ostat.Multiset)
	set.BuildFromSorted(sorted)
	*b = BMBP{
		cfg:           cfg,
		idx:           NewIncrementalIndex(cfg.Quantile, cfg.Confidence, cfg.Mode),
		hist:          hist,
		set:           set,
		rareThreshold: int(rareThreshold),
		consecMisses:  int(consecMisses),
		trims:         int(trims),
		observations:  int(observations),
		stale:         true,
	}
	b.minHistory = b.idx.MinHistory()
	return nil
}
