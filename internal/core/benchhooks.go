package core

import (
	"testing"

	"evsdb/internal/types"
)

// codecSpecimen is a bundle of one representative 200-byte keyed update
// action, the shape the submit hot path encodes per hop.
func codecSpecimen() engineMsg {
	return engineMsg{Kind: emBatch, Batch: []types.Action{{
		ID:        types.ActionID{Server: "s03", Index: 4242},
		Type:      types.ActionUpdate,
		Semantics: types.SemStrict,
		GreenLine: 99,
		Client:    "client-7",
		ClientSeq: 41,
		Update:    make([]byte, 200),
	}}}
}

// CodecAllocsPerOp measures allocations per encode and per decode of a
// representative action frame by the engine codec (encode via the pooled
// path the multicast hot path uses). cmd/evsbench records the two numbers
// in its JSON output.
func CodecAllocsPerOp() (binEnc, binDec float64) {
	m := codecSpecimen()
	frame := encodeEngineMsg(m)
	binEnc = testing.AllocsPerRun(200, func() {
		bp := encBufs.Get().(*[]byte)
		buf := appendEngineMsg((*bp)[:0], m)
		*bp = buf[:0]
		encBufs.Put(bp)
	})
	binDec = testing.AllocsPerRun(200, func() {
		if _, err := decodeEngineMsg(frame); err != nil {
			panic(err)
		}
	})
	return binEnc, binDec
}
