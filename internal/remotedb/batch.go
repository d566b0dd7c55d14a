package remotedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/relation"
)

// The column-batch codec: the one encoding of tuples in this package, used by
// response frames (frame.go), WAL records and checkpoints (wal.go).
//
//	[format byte][ncols uint32][nrows uint32] then, per column:
//	[tag byte][null bitmap, ceil(nrows/8) bytes, bit set = NULL][vector]
//
// All integers are little-endian. The vector depends on the column tag, which
// the encoder picks by looking at the cells:
//
//	colInt, colFloat  nrows × 8 bytes (two's complement / IEEE-754 bits)
//	colBool           ceil(nrows/8) bytes, one bit per row
//	colString         nrows × uint32 end offsets into one byte blob, then the
//	                  blob (its length is the last offset)
//	colMixed          no bitmap; nrows cell tags (relation.Kind), nrows × 8
//	                  byte slots (int, float bits, bool 0/1, string end
//	                  offset), then the blob the string cells index
//
// A column whose non-null cells are all of one kind takes that kind's tag;
// anything else (kinds differ, or every cell is NULL) is colMixed. A batch
// with no columns carries ceil(nrows/8) zero bytes, so that in every batch a
// row costs at least one bit per column and the decoder can refuse a row
// count the payload could not hold before it allocates for it.
//
// Decoding builds one []relation.Value arena for the whole batch, rows laid
// end to end, and one string per string-bearing column that every string cell
// of the column is a substring of: the allocation count does not depend on
// nrows, and nothing decoded aliases the input. A stream hands out tuples as
// slices of the arena, so a tuple kept by the consumer pins its batch's arena
// and blobs, as a kept join output pins its arena block.

const (
	batchFormat = 1
	batchHeader = 1 + 4 + 4

	colInt    = uint8(relation.KindInt)
	colFloat  = uint8(relation.KindFloat)
	colString = uint8(relation.KindString)
	colBool   = uint8(relation.KindBool)
	colMixed  = colBool + 1
)

var le = binary.LittleEndian

// appendBatch encodes tuples, each of arity ncols, as one batch appended to
// dst.
func appendBatch(dst []byte, ncols int, tuples []relation.Tuple) []byte {
	n := len(tuples)
	bits := (n + 7) / 8
	dst = append(dst, batchFormat)
	dst = le.AppendUint32(dst, uint32(ncols))
	dst = le.AppendUint32(dst, uint32(n))
	if ncols == 0 {
		return append(dst, make([]byte, bits)...)
	}
	for c := 0; c < ncols; c++ {
		tag := columnTag(c, tuples)
		if tag == colMixed {
			dst = appendMixedColumn(dst, c, tuples)
			continue
		}
		kind := relation.Kind(tag)
		dst = append(dst, tag)
		nulls := len(dst)
		dst = append(dst, make([]byte, bits)...)
		for i, t := range tuples {
			if t[c].IsNull() {
				dst[nulls+i/8] |= 1 << (i % 8)
			}
		}
		switch kind {
		case relation.KindInt:
			for _, t := range tuples {
				dst = le.AppendUint64(dst, uint64(t[c].AsInt()))
			}
		case relation.KindFloat:
			for _, t := range tuples {
				dst = le.AppendUint64(dst, math.Float64bits(t[c].AsFloat()))
			}
		case relation.KindBool:
			vec := len(dst)
			dst = append(dst, make([]byte, bits)...)
			for i, t := range tuples {
				if t[c].AsBool() {
					dst[vec+i/8] |= 1 << (i % 8)
				}
			}
		case relation.KindString:
			end := uint32(0)
			for _, t := range tuples {
				end += uint32(len(t[c].AsString()))
				dst = le.AppendUint32(dst, end)
			}
			for _, t := range tuples {
				dst = append(dst, t[c].AsString()...)
			}
		}
	}
	return dst
}

// columnTag is the tag appendBatch encodes column c under: the kind of its
// non-null cells when they share one, else colMixed.
func columnTag(c int, tuples []relation.Tuple) uint8 {
	kind := relation.KindNull
	for _, t := range tuples {
		k := t[c].Kind()
		if k == relation.KindNull || k == kind {
			continue
		}
		if kind != relation.KindNull {
			return colMixed
		}
		kind = k
	}
	if kind == relation.KindNull {
		return colMixed
	}
	return uint8(kind)
}

// batchSize is len(appendBatch(nil, ncols, tuples)), found without encoding,
// so that a caller can make room for a batch before appending it.
func batchSize(ncols int, tuples []relation.Tuple) int {
	n := len(tuples)
	bits := (n + 7) / 8
	if ncols == 0 {
		return batchHeader + bits
	}
	size := batchHeader + ncols // a tag a column
	for c := 0; c < ncols; c++ {
		tag := columnTag(c, tuples)
		if tag == colString || tag == colMixed {
			for _, t := range tuples {
				size += len(t[c].AsString())
			}
		}
		switch tag {
		case colMixed:
			size += 9 * n
		case colInt, colFloat:
			size += bits + 8*n
		case colBool:
			size += 2 * bits
		case colString:
			size += bits + 4*n
		}
	}
	return size
}

func appendMixedColumn(dst []byte, c int, tuples []relation.Tuple) []byte {
	dst = append(dst, colMixed)
	for _, t := range tuples {
		dst = append(dst, uint8(t[c].Kind()))
	}
	end := uint64(0)
	for _, t := range tuples {
		var slot uint64
		switch v := t[c]; v.Kind() {
		case relation.KindInt:
			slot = uint64(v.AsInt())
		case relation.KindFloat:
			slot = math.Float64bits(v.AsFloat())
		case relation.KindBool:
			if v.AsBool() {
				slot = 1
			}
		case relation.KindString:
			end += uint64(len(v.AsString()))
			slot = end
		}
		dst = le.AppendUint64(dst, slot)
	}
	for _, t := range tuples {
		dst = append(dst, t[c].AsString()...)
	}
	return dst
}

var errBatchShort = errors.New("batch shorter than its header claims")

// take splits the next n bytes off *b.
func take(b *[]byte, n uint64) ([]byte, error) {
	if n > uint64(len(*b)) {
		return nil, errBatchShort
	}
	out := (*b)[:n]
	*b = (*b)[n:]
	return out, nil
}

// decodeBatch decodes b, which must be exactly one batch of arity ncols, into
// tuples over one arena (decodeBatchValues).
func decodeBatch(b []byte, ncols int) ([]relation.Tuple, error) {
	vals, n, err := decodeBatchValues(b, ncols)
	if err != nil {
		return nil, err
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = vals[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	return tuples, nil
}

// decodeBatchValues decodes b, which must be exactly one batch of arity ncols
// (the arity the result header or the table schema announced), into its rows'
// values end to end, ncols per row. The input is not trusted: every count and
// offset is checked against the bytes present before anything is sized by it,
// and a malformed batch is an error, never a panic. vals does not alias b.
func decodeBatchValues(b []byte, ncols int) (vals []relation.Value, rows int, err error) {
	if len(b) < batchHeader {
		return nil, 0, errBatchShort
	}
	if b[0] != batchFormat {
		return nil, 0, fmt.Errorf("unknown batch format %d", b[0])
	}
	if nc := le.Uint32(b[1:]); uint64(nc) != uint64(ncols) {
		return nil, 0, fmt.Errorf("batch of %d columns where %d were announced", nc, ncols)
	}
	nrows := uint64(le.Uint32(b[5:]))
	b = b[batchHeader:]
	bits := (nrows + 7) / 8
	// The cheapest column is a tag and a bit per row, and a batch without
	// columns still carries a bit per row: nrows is bounded by the payload
	// before anything is allocated for it.
	least := bits
	if ncols > 0 {
		least = uint64(ncols) * (1 + bits)
	}
	if least > uint64(len(b)) {
		return nil, 0, errBatchShort
	}
	n := int(nrows)
	vals = make([]relation.Value, n*ncols)
	if ncols == 0 {
		b = b[bits:]
	}
	for c := 0; c < ncols; c++ {
		tag, err := take(&b, 1)
		if err != nil {
			return nil, 0, err
		}
		if tag[0] == colMixed {
			if err := decodeMixedColumn(&b, vals, c, ncols); err != nil {
				return nil, 0, err
			}
			continue
		}
		if tag[0] < colInt || tag[0] > colBool {
			return nil, 0, fmt.Errorf("unknown column tag %d", tag[0])
		}
		nulls, err := take(&b, bits)
		if err != nil {
			return nil, 0, err
		}
		null := func(i int) bool { return nulls[i/8]&(1<<(i%8)) != 0 }
		switch tag[0] {
		case colInt, colFloat:
			vec, err := take(&b, 8*nrows)
			if err != nil {
				return nil, 0, err
			}
			for i := 0; i < n; i++ {
				if null(i) {
					continue
				}
				if u := le.Uint64(vec[8*i:]); tag[0] == colInt {
					vals[i*ncols+c] = relation.Int(int64(u))
				} else {
					vals[i*ncols+c] = relation.Float(math.Float64frombits(u))
				}
			}
		case colBool:
			vec, err := take(&b, bits)
			if err != nil {
				return nil, 0, err
			}
			for i := 0; i < n; i++ {
				if !null(i) {
					vals[i*ncols+c] = relation.Bool(vec[i/8]&(1<<(i%8)) != 0)
				}
			}
		case colString:
			ends, err := take(&b, 4*nrows)
			if err != nil {
				return nil, 0, err
			}
			var size uint32
			if n > 0 {
				size = le.Uint32(ends[4*(n-1):])
			}
			raw, err := take(&b, uint64(size))
			if err != nil {
				return nil, 0, err
			}
			blob, start := string(raw), uint32(0)
			for i := 0; i < n; i++ {
				end := le.Uint32(ends[4*i:])
				if end < start || end > size {
					return nil, 0, fmt.Errorf("string offset %d outside [%d, %d]", end, start, size)
				}
				if !null(i) {
					vals[i*ncols+c] = relation.Str(blob[start:end])
				}
				start = end
			}
		}
	}
	if len(b) != 0 {
		return nil, 0, fmt.Errorf("%d bytes after the last column", len(b))
	}
	return vals, n, nil
}

// decodeMixedColumn decodes a per-cell-tagged column into column c of vals,
// an arena of rows ncols wide.
func decodeMixedColumn(b *[]byte, vals []relation.Value, c, ncols int) error {
	n := len(vals) / ncols
	tags, err := take(b, uint64(n))
	if err != nil {
		return err
	}
	slots, err := take(b, 8*uint64(n))
	if err != nil {
		return err
	}
	// String cells index one blob by end offset; its length is the last one.
	size := uint64(0)
	for i, tag := range tags {
		if relation.Kind(tag) > relation.KindBool {
			return fmt.Errorf("unknown cell tag %d", tag)
		}
		if relation.Kind(tag) == relation.KindString {
			end := le.Uint64(slots[8*i:])
			if end < size {
				return fmt.Errorf("string offset %d before %d", end, size)
			}
			size = end
		}
	}
	raw, err := take(b, size)
	if err != nil {
		return err
	}
	blob, start := string(raw), uint64(0)
	for i, tag := range tags {
		slot := le.Uint64(slots[8*i:])
		switch relation.Kind(tag) {
		case relation.KindInt:
			vals[i*ncols+c] = relation.Int(int64(slot))
		case relation.KindFloat:
			vals[i*ncols+c] = relation.Float(math.Float64frombits(slot))
		case relation.KindBool:
			vals[i*ncols+c] = relation.Bool(slot != 0)
		case relation.KindString:
			vals[i*ncols+c] = relation.Str(blob[start:slot])
			start = slot
		}
	}
	return nil
}
