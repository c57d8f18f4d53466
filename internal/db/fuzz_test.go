package db

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzApply throws arbitrary bytes at the update decoder and applier: a
// replica must survive any garbage a buggy client encodes (errors are
// deterministic aborts, never panics), determinism must hold — two
// databases fed the same bytes end in the same state — and an abort
// leaves no effects, though the version still advances.
func FuzzApply(f *testing.F) {
	f.Add(EncodeUpdate(Set("a", "1")))
	f.Add(EncodeUpdate(Add("n", 5)))
	f.Add(EncodeUpdate(CAS(map[string]string{"a": "1"}, Del("a"))))
	f.Add(EncodeUpdate(TSSet("t", "x", 9)))
	f.Add(EncodeUpdate(Noop("pad")))
	f.Add([]byte(`{"ops":[{"kind":"set","key":"a","value":"1"}]}`)) // the retired JSON format
	f.Add(EncodeUpdate(Set("a", "partial"), Op{Kind: "add", Key: "a", Value: "NaN"}))
	f.Fuzz(func(t *testing.T, update []byte) {
		d1, d2 := New(), New()
		err1 := d1.Apply(update)
		err2 := d2.Apply(update)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome: %v vs %v", err1, err2)
		}
		if string(d1.Snapshot()) != string(d2.Snapshot()) {
			t.Fatal("same update produced different states")
		}
		if d1.Version() != 1 {
			t.Fatalf("version %d after one apply", d1.Version())
		}
		if err1 != nil && d1.Len() != 0 {
			t.Fatalf("aborted update (%v) left %d keys", err1, d1.Len())
		}
	})
}

// FuzzQuery: arbitrary query bytes never panic and answer consistently
// between the green and dirty paths on a clean database.
func FuzzQuery(f *testing.F) {
	f.Add(Get("a"))
	f.Add(Prefix("a"))
	f.Add([]byte(`{"kind":"get","key":"a"}`)) // the retired JSON format
	f.Fuzz(func(t *testing.T, query []byte) {
		d := New()
		_ = d.Apply(EncodeUpdate(Set("a", "1")))
		g, gerr := d.QueryGreen(query)
		dr, derr := d.QueryDirty(query)
		if (gerr == nil) != (derr == nil) {
			t.Fatalf("green/dirty disagree on validity: %v vs %v", gerr, derr)
		}
		if gerr == nil && g.Value != dr.Value {
			t.Fatalf("green %q vs dirty %q on clean db", g.Value, dr.Value)
		}
	})
}

// payloadSpecimens covers every op kind and field, the unknown kind, and
// cas and proc nested inside cas.
func payloadSpecimens() [][]Op {
	return [][]Op{
		{Set("a", "1")},
		{Set("", ""), Del("gone"), Add("n", -42), TSSet("t", "x", -9), Noop(strings.Repeat("p", 300))},
		{CAS(map[string]string{"b": "2", "a": "1", "": ""},
			Set("a", "3"),
			CAS(nil, Proc("transfer", []byte{0, 0xFF}), CAS(map[string]string{"z": ""}, Del("b"))))},
		{{Kind: "", Key: "k", Value: "v", TS: 3, Proc: "p", Args: []byte("x")}},
		{{Kind: ""}},
		nil,
	}
}

// FuzzPayloadCodec: encoding then decoding an update returns exactly the
// ops encoded, and re-encoding what decoded gives the same bytes; any
// byte string decodes or errors, never panics, and what decodes is a
// fixed point of the codec.
func FuzzPayloadCodec(f *testing.F) {
	for _, ops := range payloadSpecimens() {
		f.Add(EncodeUpdate(ops...))
	}
	f.Add(nestedCAS(maxOpDepth + 1))
	f.Add(Get("k"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ops, err := decodeUpdate(data); err == nil {
			if again := EncodeUpdate(ops...); !bytes.Equal(again, data) {
				t.Fatalf("decoded update re-encodes differently:\n  % x\n  % x", data, again)
			}
		}
		if q, err := decodeQuery(data); err == nil {
			if again := EncodeQuery(q); !bytes.Equal(again, data) {
				t.Fatalf("decoded query re-encodes differently:\n  % x\n  % x", data, again)
			}
		}
	})
}

// nestedCAS returns an update frame whose ops nest depth levels deep.
func nestedCAS(depth int) []byte {
	op := Set("k", "v")
	for i := 1; i < depth; i++ {
		op = CAS(nil, op)
	}
	return EncodeUpdate(op)
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	for i, ops := range payloadSpecimens() {
		frame := EncodeUpdate(ops...)
		if frame[0] != updateMagic || frame[1] != codecVersion {
			t.Fatalf("specimen %d: header % x", i, frame[:2])
		}
		got, err := decodeUpdate(frame)
		if err != nil {
			t.Fatalf("specimen %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, ops) {
			t.Fatalf("specimen %d: decoded\n  %#v\nwant\n  %#v", i, got, ops)
		}
		for n := 0; n < len(frame); n++ {
			if _, err := decodeUpdate(frame[:n]); err == nil {
				t.Fatalf("specimen %d: %d-byte prefix of %d decoded", i, n, len(frame))
			}
		}
		if _, err := decodeUpdate(append(frame, 0)); err == nil {
			t.Fatalf("specimen %d: trailing byte accepted", i)
		}
	}
	for _, q := range []Query{{Kind: "get", Key: "k"}, {Kind: "prefix"}, {Kind: "", Key: "x"}} {
		if got, err := decodeQuery(EncodeQuery(q)); err != nil || got != q {
			t.Fatalf("query %+v decoded to %+v, %v", q, got, err)
		}
	}
	// A kind the codec does not know travels as the unknown code and
	// decodes to the empty kind, which apply and query then refuse.
	if got, err := decodeUpdate(EncodeUpdate(Op{Kind: "wat", Key: "k"})); err != nil || !reflect.DeepEqual(got, []Op{{Key: "k"}}) {
		t.Fatalf("unknown op kind decoded to %#v, %v", got, err)
	}
	if got, err := decodeQuery(EncodeQuery(Query{Kind: "wat", Key: "x"})); err != nil || got != (Query{Key: "x"}) {
		t.Fatalf("unknown query kind decoded to %+v, %v", got, err)
	}
}

// TestPayloadCodecCanonical: the same ops always encode to the same bytes
// (cas guards are written in key order), and the decoder refuses every
// other spelling of them.
func TestPayloadCodecCanonical(t *testing.T) {
	want := EncodeUpdate(CAS(map[string]string{"a": "1", "b": "2", "c": "3"}, Set("k", "v")))
	for i := 0; i < 50; i++ {
		if got := EncodeUpdate(CAS(map[string]string{"c": "3", "b": "2", "a": "1"}, Set("k", "v"))); !bytes.Equal(got, want) {
			t.Fatalf("cas guard encoded in map order:\n  % x\n  % x", got, want)
		}
	}
	set := EncodeUpdate(Set("k", "v")) // d0 01 01 02 03 01 6b 01 76
	for name, frame := range map[string][]byte{
		"unsorted expect":     {updateMagic, codecVersion, 1, opCAS, fieldExpect, 2, 1, 'b', 0, 1, 'a', 0},
		"empty present key":   {updateMagic, codecVersion, 1, opDel, fieldKey, 0},
		"zero present ts":     {updateMagic, codecVersion, 1, opTSSet, fieldTS, 0},
		"unknown field bit":   {updateMagic, codecVersion, 1, opNoop, 0x80},
		"unknown kind code":   {updateMagic, codecVersion, 1, 99, 0},
		"count beyond frame":  {updateMagic, codecVersion, 200, 1},
		"overlong varint":     {updateMagic, codecVersion, 0x80, 0},
		"JSON":                []byte(`{"ops":[]}`),
		"previous version":    append([]byte{updateMagic, 0}, set[2:]...),
		"query as update":     Get("k"),
		"header only":         set[:2],
		"deeper than the cap": nestedCAS(maxOpDepth + 1),
	} {
		if _, err := decodeUpdate(frame); err == nil {
			t.Errorf("%s: % x decoded", name, frame)
		}
	}
	if _, err := decodeUpdate(nestedCAS(maxOpDepth)); err != nil {
		t.Fatalf("cas nested to the cap: %v", err)
	}
	d := New()
	if err := d.Apply(nestedCAS(maxOpDepth + 1)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("apply of an over-deep update: %v, want a nesting abort", err)
	}
	if d.Version() != 1 || d.Len() != 0 {
		t.Fatalf("abort moved state: version %d, %d keys", d.Version(), d.Len())
	}
}
