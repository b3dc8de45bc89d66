// Package compress implements the per-column block encodings of §2.1 and the
// automatic, sampling-based encoding selection of §1 ("we automatically pick
// compression types based on data sampling") and §3.3 ("simply setting them
// accurately ourselves").
//
// The encoding set mirrors Redshift's: RAW, RUNLENGTH, DELTA, MOSTLY8/16/32,
// BYTEDICT, TEXT (string dictionary) and LZO (stand-in: DEFLATE, the stdlib
// Lempel-Ziv). Every encoded block is self-describing: a fixed header carries
// the encoding, the value type, the row count and the null bitmap, so blocks
// can be shipped to S3, replicated and page-faulted back without side tables.
package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"redshift/internal/types"
)

// Encoding identifies a block codec.
type Encoding uint8

// The supported encodings. Raw must be zero so the zero value is valid.
const (
	Raw Encoding = iota
	RunLength
	Delta
	Mostly8
	Mostly16
	Mostly32
	ByteDict
	Text
	LZ

	numEncodings
)

// String returns the CREATE TABLE ... ENCODE name of the encoding.
func (e Encoding) String() string {
	switch e {
	case Raw:
		return "RAW"
	case RunLength:
		return "RUNLENGTH"
	case Delta:
		return "DELTA"
	case Mostly8:
		return "MOSTLY8"
	case Mostly16:
		return "MOSTLY16"
	case Mostly32:
		return "MOSTLY32"
	case ByteDict:
		return "BYTEDICT"
	case Text:
		return "TEXT"
	case LZ:
		return "LZO"
	default:
		return fmt.Sprintf("ENCODING(%d)", uint8(e))
	}
}

// ParseEncoding maps an ENCODE clause name to an Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "RAW", "NONE":
		return Raw, nil
	case "RUNLENGTH":
		return RunLength, nil
	case "DELTA", "DELTA32K":
		return Delta, nil
	case "MOSTLY8":
		return Mostly8, nil
	case "MOSTLY16":
		return Mostly16, nil
	case "MOSTLY32":
		return Mostly32, nil
	case "BYTEDICT":
		return ByteDict, nil
	case "TEXT", "TEXT255", "TEXT32K":
		return Text, nil
	case "LZO", "LZ", "ZSTD":
		return LZ, nil
	default:
		return Raw, fmt.Errorf("compress: unknown encoding %q", s)
	}
}

// Applicable reports whether encoding e can represent columns of type t.
func Applicable(e Encoding, t types.Type) bool {
	switch e {
	case Raw, RunLength, ByteDict, LZ:
		return true
	case Delta, Mostly8, Mostly16, Mostly32:
		return t == types.Int64 || t == types.Date || t == types.Timestamp || t == types.Bool
	case Text:
		return t == types.String
	default:
		return false
	}
}

// intKind reports whether the type stores its payload in Vector.Ints.
func intKind(t types.Type) bool { return t != types.Float64 && t != types.String }

// Encode serializes v with encoding e into a self-describing block.
func Encode(e Encoding, v *types.Vector) ([]byte, error) {
	if !Applicable(e, v.T) {
		return nil, fmt.Errorf("compress: %s not applicable to %s", e, v.T)
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(e))
	buf.WriteByte(byte(v.T))
	writeUvarint(&buf, uint64(v.Len()))
	writeNulls(&buf, v)

	var err error
	switch e {
	case Raw:
		err = encodeRaw(&buf, v)
	case RunLength:
		err = encodeRunLength(&buf, v)
	case Delta:
		err = encodeDelta(&buf, v)
	case Mostly8:
		err = encodeMostly(&buf, v, 1)
	case Mostly16:
		err = encodeMostly(&buf, v, 2)
	case Mostly32:
		err = encodeMostly(&buf, v, 4)
	case ByteDict:
		err = encodeByteDict(&buf, v)
	case Text:
		err = encodeText(&buf, v)
	case LZ:
		err = encodeLZ(&buf, v)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reconstructs the vector from a self-describing block. A string
// block's values are substrings of one copy of the block's payload, so
// decoding allocates per block, not per value.
func Decode(data []byte) (*types.Vector, error) {
	r := newBlockReader(data)
	encByte, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("compress: short block: %w", err)
	}
	typByte, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("compress: short block: %w", err)
	}
	e, t := Encoding(encByte), types.Type(typByte)
	if e >= numEncodings {
		return nil, fmt.Errorf("compress: corrupt block: encoding %d", encByte)
	}
	n64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("compress: corrupt block length: %w", err)
	}
	n := int(n64)
	nulls, err := readNulls(r, n)
	if err != nil {
		return nil, err
	}

	if t == types.String && e != LZ {
		r.payload = string(data)
	}
	v := types.NewVector(t, n)
	switch e {
	case Raw:
		err = decodeRaw(r, v, n)
	case RunLength:
		err = decodeRunLength(r, v, n)
	case Delta:
		err = decodeDelta(r, v, n)
	case Mostly8:
		err = decodeMostly(r, v, n, 1)
	case Mostly16:
		err = decodeMostly(r, v, n, 2)
	case Mostly32:
		err = decodeMostly(r, v, n, 4)
	case ByteDict:
		err = decodeByteDict(r, v, n)
	case Text:
		err = decodeText(r, v, n)
	case LZ:
		err = decodeLZ(r, v, n)
	}
	if err != nil {
		return nil, err
	}
	v.Nulls = nulls
	return v, nil
}

// BlockEncoding returns the encoding tag of an encoded block without
// decoding it.
func BlockEncoding(data []byte) (Encoding, error) {
	if len(data) < 2 {
		return Raw, fmt.Errorf("compress: short block")
	}
	return Encoding(data[0]), nil
}

// header/null-bitmap helpers

func writeUvarint(buf *bytes.Buffer, x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], x)])
}

func writeVarint(buf *bytes.Buffer, x int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutVarint(tmp[:], x)])
}

func writeNulls(buf *bytes.Buffer, v *types.Vector) {
	if !v.HasNulls() {
		buf.WriteByte(0)
		return
	}
	buf.WriteByte(1)
	n := v.Len()
	packed := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			packed[i/8] |= 1 << uint(i%8)
		}
	}
	buf.Write(packed)
}

// blockReader reads an encoded payload. For string vectors, payload is
// the same bytes as one string, and readString slices values out of it.
type blockReader struct {
	bytes.Reader
	payload string
}

func newBlockReader(b []byte) *blockReader {
	r := new(blockReader)
	r.Reset(b)
	return r
}

func readNulls(r *blockReader, n int) ([]bool, error) {
	flag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("compress: corrupt null header: %w", err)
	}
	if flag == 0 {
		return nil, nil
	}
	packed := make([]byte, (n+7)/8)
	if _, err := io.ReadFull(r, packed); err != nil {
		return nil, fmt.Errorf("compress: corrupt null bitmap: %w", err)
	}
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		nulls[i] = packed[i/8]&(1<<uint(i%8)) != 0
	}
	return nulls, nil
}

// RAW: fixed 8-byte little-endian for numerics, length-prefixed bytes for
// strings.

func encodeRaw(buf *bytes.Buffer, v *types.Vector) error {
	switch v.T {
	case types.Float64:
		var tmp [8]byte
		for _, f := range v.Floats {
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
			buf.Write(tmp[:])
		}
	case types.String:
		for _, s := range v.Strs {
			writeUvarint(buf, uint64(len(s)))
			buf.WriteString(s)
		}
	default:
		var tmp [8]byte
		for _, i := range v.Ints {
			binary.LittleEndian.PutUint64(tmp[:], uint64(i))
			buf.Write(tmp[:])
		}
	}
	return nil
}

func decodeRaw(r *blockReader, v *types.Vector, n int) error {
	switch v.T {
	case types.Float64:
		var tmp [8]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(r, tmp[:]); err != nil {
				return fmt.Errorf("compress: raw float: %w", err)
			}
			v.Floats = append(v.Floats, math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])))
		}
	case types.String:
		for i := 0; i < n; i++ {
			s, err := readString(r)
			if err != nil {
				return err
			}
			v.Strs = append(v.Strs, s)
		}
	default:
		var tmp [8]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(r, tmp[:]); err != nil {
				return fmt.Errorf("compress: raw int: %w", err)
			}
			v.Ints = append(v.Ints, int64(binary.LittleEndian.Uint64(tmp[:])))
		}
	}
	return nil
}

func readString(r *blockReader) (string, error) {
	l, err := binary.ReadUvarint(r)
	if err != nil {
		return "", fmt.Errorf("compress: string length: %w", err)
	}
	if l > uint64(r.Len()) {
		return "", fmt.Errorf("compress: corrupt string length %d", l)
	}
	off := int(r.Size()) - r.Len()
	if _, err := r.Seek(int64(l), io.SeekCurrent); err != nil {
		return "", fmt.Errorf("compress: string body: %w", err)
	}
	return r.payload[off : off+int(l)], nil
}

// RUNLENGTH: (value, run) pairs. Ideal for sorted low-cardinality columns.

func encodeRunLength(buf *bytes.Buffer, v *types.Vector) error {
	n := v.Len()
	for i := 0; i < n; {
		j := i + 1
		for j < n && sameAt(v, i, j) {
			j++
		}
		switch v.T {
		case types.Float64:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.Floats[i]))
			buf.Write(tmp[:])
		case types.String:
			writeUvarint(buf, uint64(len(v.Strs[i])))
			buf.WriteString(v.Strs[i])
		default:
			writeVarint(buf, v.Ints[i])
		}
		writeUvarint(buf, uint64(j-i))
		i = j
	}
	return nil
}

func sameAt(v *types.Vector, i, j int) bool {
	switch v.T {
	case types.Float64:
		return v.Floats[i] == v.Floats[j]
	case types.String:
		return v.Strs[i] == v.Strs[j]
	default:
		return v.Ints[i] == v.Ints[j]
	}
}

func decodeRunLength(r *blockReader, v *types.Vector, n int) error {
	for v.Len() < n {
		var iv int64
		var fv float64
		var sv string
		var err error
		switch v.T {
		case types.Float64:
			var tmp [8]byte
			if _, err = io.ReadFull(r, tmp[:]); err != nil {
				return fmt.Errorf("compress: rle float: %w", err)
			}
			fv = math.Float64frombits(binary.LittleEndian.Uint64(tmp[:]))
		case types.String:
			if sv, err = readString(r); err != nil {
				return err
			}
		default:
			if iv, err = binary.ReadVarint(r); err != nil {
				return fmt.Errorf("compress: rle int: %w", err)
			}
		}
		run, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("compress: rle run: %w", err)
		}
		if run == 0 || v.Len()+int(run) > n {
			return fmt.Errorf("compress: corrupt rle run %d", run)
		}
		for k := uint64(0); k < run; k++ {
			switch v.T {
			case types.Float64:
				v.Floats = append(v.Floats, fv)
			case types.String:
				v.Strs = append(v.Strs, sv)
			default:
				v.Ints = append(v.Ints, iv)
			}
		}
	}
	return nil
}

// DELTA: first value then zigzag-varint deltas. Ideal for sorted or
// timestamp-like integer columns.

func encodeDelta(buf *bytes.Buffer, v *types.Vector) error {
	prev := int64(0)
	for i, x := range v.Ints {
		if i == 0 {
			writeVarint(buf, x)
		} else {
			writeVarint(buf, x-prev)
		}
		prev = x
	}
	return nil
}

func decodeDelta(r *blockReader, v *types.Vector, n int) error {
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, err := binary.ReadVarint(r)
		if err != nil {
			return fmt.Errorf("compress: delta: %w", err)
		}
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		v.Ints = append(v.Ints, prev)
	}
	return nil
}

// MOSTLY8/16/32: narrow fixed-width payload with an exception list for
// values outside the narrow range. Ideal for columns declared BIGINT that
// mostly hold small values.

func mostlyFits(x int64, width int) bool {
	switch width {
	case 1:
		return x >= math.MinInt8 && x <= math.MaxInt8
	case 2:
		return x >= math.MinInt16 && x <= math.MaxInt16
	default:
		return x >= math.MinInt32 && x <= math.MaxInt32
	}
}

func encodeMostly(buf *bytes.Buffer, v *types.Vector, width int) error {
	type exception struct {
		pos int
		val int64
	}
	var exceptions []exception
	for i, x := range v.Ints {
		if !mostlyFits(x, width) {
			exceptions = append(exceptions, exception{i, x})
		}
	}
	writeUvarint(buf, uint64(len(exceptions)))
	for _, e := range exceptions {
		writeUvarint(buf, uint64(e.pos))
		writeVarint(buf, e.val)
	}
	var tmp [4]byte
	for _, x := range v.Ints {
		if !mostlyFits(x, width) {
			x = 0 // placeholder; real value is in the exception list
		}
		switch width {
		case 1:
			buf.WriteByte(byte(int8(x)))
		case 2:
			binary.LittleEndian.PutUint16(tmp[:2], uint16(int16(x)))
			buf.Write(tmp[:2])
		default:
			binary.LittleEndian.PutUint32(tmp[:4], uint32(int32(x)))
			buf.Write(tmp[:4])
		}
	}
	return nil
}

func decodeMostly(r *blockReader, v *types.Vector, n, width int) error {
	nExc, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("compress: mostly exceptions: %w", err)
	}
	exc := make(map[int]int64, nExc)
	for i := uint64(0); i < nExc; i++ {
		pos, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("compress: mostly exception pos: %w", err)
		}
		val, err := binary.ReadVarint(r)
		if err != nil {
			return fmt.Errorf("compress: mostly exception val: %w", err)
		}
		exc[int(pos)] = val
	}
	var tmp [4]byte
	for i := 0; i < n; i++ {
		var x int64
		switch width {
		case 1:
			b, err := r.ReadByte()
			if err != nil {
				return fmt.Errorf("compress: mostly8: %w", err)
			}
			x = int64(int8(b))
		case 2:
			if _, err := io.ReadFull(r, tmp[:2]); err != nil {
				return fmt.Errorf("compress: mostly16: %w", err)
			}
			x = int64(int16(binary.LittleEndian.Uint16(tmp[:2])))
		default:
			if _, err := io.ReadFull(r, tmp[:4]); err != nil {
				return fmt.Errorf("compress: mostly32: %w", err)
			}
			x = int64(int32(binary.LittleEndian.Uint32(tmp[:4])))
		}
		if ev, ok := exc[i]; ok {
			x = ev
		}
		v.Ints = append(v.Ints, x)
	}
	return nil
}

// BYTEDICT: per-block dictionary of up to 256 distinct values with one-byte
// indexes. Ideal for low-cardinality columns of any type.

// ErrDictOverflow reports that a block has too many distinct values for
// BYTEDICT; the automatic chooser treats it as "not applicable here".
var ErrDictOverflow = fmt.Errorf("compress: more than 256 distinct values in block")

func encodeByteDict(buf *bytes.Buffer, v *types.Vector) error {
	n := v.Len()
	dict := types.NewVector(v.T, 16)
	index := make([]byte, 0, n)

	find := func(i int) (int, bool) {
		for d := 0; d < dict.Len(); d++ {
			if sameValue(v, i, dict, d) {
				return d, true
			}
		}
		return 0, false
	}
	for i := 0; i < n; i++ {
		d, ok := find(i)
		if !ok {
			if dict.Len() == 256 {
				return ErrDictOverflow
			}
			d = dict.Len()
			dict.Append(v.Get(i).WithoutNull())
		}
		index = append(index, byte(d))
	}
	writeUvarint(buf, uint64(dict.Len()))
	if err := encodeRaw(buf, dict); err != nil {
		return err
	}
	buf.Write(index)
	return nil
}

func sameValue(a *types.Vector, i int, b *types.Vector, j int) bool {
	switch a.T {
	case types.Float64:
		return a.Floats[i] == b.Floats[j]
	case types.String:
		return a.Strs[i] == b.Strs[j]
	default:
		return a.Ints[i] == b.Ints[j]
	}
}

func decodeByteDict(r *blockReader, v *types.Vector, n int) error {
	dn, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("compress: bytedict size: %w", err)
	}
	if dn > 256 {
		return fmt.Errorf("compress: corrupt bytedict size %d", dn)
	}
	dict := types.NewVector(v.T, int(dn))
	if err := decodeRaw(r, dict, int(dn)); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return fmt.Errorf("compress: bytedict index: %w", err)
		}
		if int(b) >= dict.Len() {
			return fmt.Errorf("compress: bytedict index %d out of range", b)
		}
		switch v.T {
		case types.Float64:
			v.Floats = append(v.Floats, dict.Floats[b])
		case types.String:
			v.Strs = append(v.Strs, dict.Strs[b])
		default:
			v.Ints = append(v.Ints, dict.Ints[b])
		}
	}
	return nil
}

// TEXT: unbounded string dictionary with varint indexes (generalizes
// Redshift's TEXT255/TEXT32K).

func encodeText(buf *bytes.Buffer, v *types.Vector) error {
	dict := make(map[string]int)
	var words []string
	idx := make([]int, v.Len())
	for i, s := range v.Strs {
		d, ok := dict[s]
		if !ok {
			d = len(words)
			dict[s] = d
			words = append(words, s)
		}
		idx[i] = d
	}
	writeUvarint(buf, uint64(len(words)))
	for _, w := range words {
		writeUvarint(buf, uint64(len(w)))
		buf.WriteString(w)
	}
	for _, d := range idx {
		writeUvarint(buf, uint64(d))
	}
	return nil
}

func decodeText(r *blockReader, v *types.Vector, n int) error {
	wn, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("compress: text dict size: %w", err)
	}
	if wn > uint64(r.Len()) {
		return fmt.Errorf("compress: corrupt text dict size %d", wn)
	}
	words := make([]string, wn)
	for i := range words {
		if words[i], err = readString(r); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		d, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("compress: text index: %w", err)
		}
		if d >= wn {
			return fmt.Errorf("compress: text index %d out of range", d)
		}
		v.Strs = append(v.Strs, words[d])
	}
	return nil
}

// LZ: DEFLATE over the RAW payload — the heavyweight general-purpose codec,
// standing in for LZO.

func encodeLZ(buf *bytes.Buffer, v *types.Vector) error {
	var raw bytes.Buffer
	if err := encodeRaw(&raw, v); err != nil {
		return err
	}
	w, err := flate.NewWriter(buf, flate.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := w.Write(raw.Bytes()); err != nil {
		return err
	}
	return w.Close()
}

// lzScratch is a reusable DEFLATE reader and output buffer. A string
// block's output is copied out once, as the payload its values slice.
type lzScratch struct {
	fr  io.ReadCloser
	buf bytes.Buffer
}

var lzPool = sync.Pool{New: func() any { return new(lzScratch) }}

func decodeLZ(r *blockReader, v *types.Vector, n int) error {
	sc := lzPool.Get().(*lzScratch)
	defer lzPool.Put(sc)
	if sc.fr == nil {
		sc.fr = flate.NewReader(r)
	} else if err := sc.fr.(flate.Resetter).Reset(r, nil); err != nil {
		return fmt.Errorf("compress: lz: %w", err)
	}
	sc.buf.Reset()
	if _, err := sc.buf.ReadFrom(sc.fr); err != nil {
		return fmt.Errorf("compress: lz: %w", err)
	}
	raw := newBlockReader(sc.buf.Bytes())
	if v.T == types.String {
		raw.payload = sc.buf.String()
	}
	return decodeRaw(raw, v, n)
}
