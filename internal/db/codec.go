package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// One binary codec carries every update and query payload, version 1.
//
// An update frame is
//
//	[updateMagic][codecVersion] uvarint(len(ops)) op...
//
// and one op is
//
//	[kind] [fields] present fields, in this order:
//	        key    string     fieldKey
//	        value  string     fieldValue
//	        ts     varint     fieldTS
//	        expect uvarint(n) (key string, value string)... fieldExpect, keys ascending
//	        ops    uvarint(n) op...                         fieldOps, nested cas body
//	        proc   string     fieldProc
//	        args   string     fieldArgs
//
// where a string is uvarint(len) followed by the bytes, kind is one of the
// op* codes below (opUnknown stands for every kind this codec does not
// know: it decodes to the empty kind, which every apply path aborts on),
// and a field is present exactly when it is non-zero. Expect keys are
// sorted, so equal ops encode to equal bytes on every replica, and the
// decoder refuses any other spelling of the same op: unknown field bits,
// an absent-valued present field, unsorted or duplicate expect keys, an
// overlong varint. A query frame is
//
//	[queryMagic][codecVersion] [kind] key-string
//
// with the same kind convention (queryGet, queryPrefix, or queryUnknown).
// Malformed bytes are an error, never a panic: the engine turns them into
// the same deterministic abort at every replica.
const (
	updateMagic  = 0xD0
	queryMagic   = 0xD1
	codecVersion = 1

	// maxOpDepth caps cas nesting (the top level is depth 1), so a
	// hostile frame cannot drive the decoder's or the interpreters'
	// recursion deep.
	maxOpDepth = 16
)

const (
	opUnknown byte = iota
	opNoop
	opSet
	opDel
	opAdd
	opTSSet
	opCAS
	opProc
)

var opNames = [...]string{opNoop: "noop", opSet: "set", opDel: "del", opAdd: "add", opTSSet: "tsset", opCAS: "cas", opProc: "proc"}

const (
	queryUnknown byte = iota
	queryGet
	queryPrefix
)

var queryNames = [...]string{queryGet: "get", queryPrefix: "prefix"}

const (
	fieldKey byte = 1 << iota
	fieldValue
	fieldTS
	fieldExpect
	fieldOps
	fieldProc
	fieldArgs
)

var errTruncated = errors.New("truncated frame")

// kindCode returns the code for a known name, or the unknown code 0.
func kindCode(names []string, name string) byte {
	for code, n := range names {
		if n != "" && n == name {
			return byte(code)
		}
	}
	return 0
}

func putString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendOp(buf []byte, op Op) []byte {
	buf = append(buf, kindCode(opNames[:], op.Kind))
	var fields byte
	if op.Key != "" {
		fields |= fieldKey
	}
	if op.Value != "" {
		fields |= fieldValue
	}
	if op.TS != 0 {
		fields |= fieldTS
	}
	if len(op.Expect) > 0 {
		fields |= fieldExpect
	}
	if len(op.Ops) > 0 {
		fields |= fieldOps
	}
	if op.Proc != "" {
		fields |= fieldProc
	}
	if len(op.Args) > 0 {
		fields |= fieldArgs
	}
	buf = append(buf, fields)
	if fields&fieldKey != 0 {
		buf = putString(buf, op.Key)
	}
	if fields&fieldValue != 0 {
		buf = putString(buf, op.Value)
	}
	if fields&fieldTS != 0 {
		buf = binary.AppendVarint(buf, op.TS)
	}
	if fields&fieldExpect != 0 {
		keys := make([]string, 0, len(op.Expect))
		for k := range op.Expect {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = putString(putString(buf, k), op.Expect[k])
		}
	}
	if fields&fieldOps != 0 {
		buf = appendOps(buf, op.Ops)
	}
	if fields&fieldProc != 0 {
		buf = putString(buf, op.Proc)
	}
	if fields&fieldArgs != 0 {
		buf = putString(buf, string(op.Args))
	}
	return buf
}

func appendOps(buf []byte, ops []Op) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = appendOp(buf, op)
	}
	return buf
}

// reader walks a frame; the first failure sticks in err and every later
// read returns zero values, so decoders check once per element.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

func (r *reader) byte() byte {
	if len(r.buf) < 1 {
		r.fail(errTruncated)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// varintLen checks the length n a varint read reported: positive, and
// no overlong spelling (a trailing zero byte after a continuation).
func (r *reader) varintLen(n int) bool {
	switch {
	case n <= 0:
		r.fail(errTruncated)
	case n > 1 && r.buf[n-1] == 0:
		r.fail(errors.New("overlong varint"))
	default:
		return true
	}
	return false
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if !r.varintLen(n) {
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.buf)
	if !r.varintLen(n) {
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) string() string {
	n := r.uvarint()
	if n > uint64(len(r.buf)) {
		r.fail(errTruncated)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// nonEmpty reads a string whose field bit promised a non-zero value.
func (r *reader) nonEmpty(what string) string {
	s := r.string()
	if s == "" && r.err == nil {
		r.fail(fmt.Errorf("empty %s marked present", what))
	}
	return s
}

// count reads an element count; each element takes at least minSize
// bytes, so a count the rest of the frame cannot hold is corruption, not
// an allocation request.
func (r *reader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.buf)/minSize) {
		r.fail(errTruncated)
		return 0
	}
	return int(n)
}

// header checks a frame's magic and version and returns a reader over
// its body.
func header(buf []byte, magic byte) *reader {
	r := &reader{buf: buf}
	switch {
	case len(buf) < 2:
		r.fail(errTruncated)
	case buf[0] != magic:
		r.fail(fmt.Errorf("foreign magic 0x%02x, want 0x%02x", buf[0], magic))
	case buf[1] != codecVersion:
		r.fail(fmt.Errorf("codec version %d, this node speaks %d", buf[1], codecVersion))
	default:
		r.buf = buf[2:]
	}
	return r
}

// kind reads a kind code; the unknown code 0 reads as the empty kind.
func (r *reader) kind(names []string) string {
	code := r.byte()
	if int(code) >= len(names) {
		r.fail(fmt.Errorf("unknown kind code %d", code))
		return ""
	}
	return names[code]
}

func (r *reader) ops(depth int) []Op {
	if depth > maxOpDepth {
		r.fail(fmt.Errorf("ops nested deeper than %d", maxOpDepth))
		return nil
	}
	n := r.count(2) // the smallest op: kind and field bytes
	if n == 0 {
		return nil
	}
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = r.op(depth)
		if r.err != nil {
			return nil
		}
	}
	return ops
}

func (r *reader) op(depth int) Op {
	op := Op{Kind: r.kind(opNames[:])}
	fields := r.byte()
	if fields >= fieldArgs<<1 {
		r.fail(fmt.Errorf("unknown op field bits 0x%02x", fields))
	}
	if fields&fieldKey != 0 {
		op.Key = r.nonEmpty("key")
	}
	if fields&fieldValue != 0 {
		op.Value = r.nonEmpty("value")
	}
	if fields&fieldTS != 0 {
		if op.TS = r.varint(); op.TS == 0 {
			r.fail(errors.New("zero ts marked present"))
		}
	}
	if fields&fieldExpect != 0 {
		n := r.count(2) // an empty key and an empty value
		if n == 0 {
			r.fail(errors.New("empty expect marked present"))
		}
		op.Expect = make(map[string]string, n)
		prev := ""
		for i := 0; i < n && r.err == nil; i++ {
			k := r.string()
			if i > 0 && k <= prev {
				r.fail(errors.New("expect keys not strictly ascending"))
			}
			op.Expect[k], prev = r.string(), k
		}
	}
	if fields&fieldOps != 0 {
		if op.Ops = r.ops(depth + 1); op.Ops == nil {
			r.fail(errors.New("empty ops marked present"))
		}
	}
	if fields&fieldProc != 0 {
		op.Proc = r.nonEmpty("proc")
	}
	if fields&fieldArgs != 0 {
		op.Args = []byte(r.nonEmpty("args"))
	}
	return op
}

// decodeUpdate is the one decoder behind green and dirty apply (Tx.run):
// its errors are the deterministic abort every replica reports for the
// same bytes.
func decodeUpdate(update []byte) ([]Op, error) {
	r := header(update, updateMagic)
	ops := r.ops(1)
	if r.err == nil && len(r.buf) != 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.buf)))
	}
	if r.err != nil {
		return nil, fmt.Errorf("decode update: %w", r.err)
	}
	return ops, nil
}

// decodeQuery decodes a query payload (runQuery's one decoder).
func decodeQuery(query []byte) (Query, error) {
	r := header(query, queryMagic)
	q := Query{Kind: r.kind(queryNames[:])}
	q.Key = r.string()
	if r.err == nil && len(r.buf) != 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.buf)))
	}
	if r.err != nil {
		return Query{}, fmt.Errorf("decode query: %w", r.err)
	}
	return q, nil
}
