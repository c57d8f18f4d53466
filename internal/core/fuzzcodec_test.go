package core

import (
	"testing"

	"evsdb/internal/db"
	"evsdb/internal/types"
)

// FuzzDecodeEngineMsg exercises the engine-message envelope codec: any
// byte string a faulty peer multicasts must decode cleanly or error —
// never panic — and valid messages must round-trip through the codec with
// their kind and payload presence intact.
func FuzzDecodeEngineMsg(f *testing.F) {
	f.Add(encodeEngineMsg(engineMsg{Kind: emBatch, Batch: []types.Action{{
		ID:        types.ActionID{Server: "s00", Index: 3},
		Type:      types.ActionUpdate,
		Semantics: types.SemStrict,
		GreenLine: 7,
		Update:    db.EncodeUpdate(db.Set("a", "1")),
	}}}))
	f.Add(encodeEngineMsg(engineMsg{Kind: emState, State: &stateMsg{
		Server: "s01", Conf: types.ConfID{Counter: 4, Proposer: "s00"}, Round: 1,
		RedCut:        map[types.ServerID]uint64{"s00": 2, "s01": 5},
		GreenCount:    9,
		BaseGreen:     3,
		GreenSeqKnown: map[types.ServerID]uint64{"s00": 9},
		AttemptIndex:  2,
		Prim:          PrimComponent{PrimIndex: 6, AttemptIndex: 1, Servers: []types.ServerID{"s00", "s01"}},
		Vuln:          Vulnerable{Status: true, PrimIndex: 6, AttemptIndex: 2, Set: []types.ServerID{"s00"}},
		Yellow:        Yellow{Status: true, Set: []types.ActionID{{Server: "s00", Index: 3}}},
	}}))
	f.Add(encodeEngineMsg(engineMsg{Kind: emCPC, CPC: &cpcMsg{
		Server: "s02", Conf: types.ConfID{Counter: 8, Proposer: "s02"},
	}}))
	f.Add(encodeEngineMsg(engineMsg{Kind: emRetrans, Retrans: &retransMsg{
		Action: types.Action{ID: types.ActionID{Server: "s01", Index: 1}},
		Green:  true, GreenSeq: 4,
	}}))
	f.Add(encodeEngineMsg(engineMsg{Kind: emSnapshot, Snap: &snapMsg{
		Server: "s00", Conf: types.ConfID{Counter: 2, Proposer: "s01"}, Round: 1,
		Snap: &JoinSnapshot{
			Servers:    []types.ServerID{"s00", "s01"},
			GreenCount: 12,
			OrderedIdx: map[types.ServerID]uint64{"s00": 7, "s01": 5},
			GreenKnown: map[types.ServerID]uint64{"s00": 12},
			Prim:       PrimComponent{PrimIndex: 3, Servers: []types.ServerID{"s00", "s01"}},
		},
	}}))
	f.Add(encodeEngineMsg(engineMsg{Kind: emBatch, Batch: []types.Action{
		{
			ID:        types.ActionID{Server: "s00", Index: 4},
			Type:      types.ActionUpdate,
			Semantics: types.SemStrict,
			GreenLine: 7,
			Client:    "c1",
			ClientSeq: 9,
			Update:    []byte(`{"ops":[{"kind":"set","key":"a","value":"1"}]}`),
		},
		{
			ID:        types.ActionID{Server: "s00", Index: 5},
			Type:      types.ActionUpdate,
			Semantics: types.SemCommutative,
			GreenLine: 7,
			Update:    []byte(`{"ops":[{"kind":"set","key":"b","value":"2"}]}`),
			Query:     []byte("b"),
		},
	}}))
	f.Add([]byte(`{"kind":99}`))
	f.Add([]byte(`{`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeEngineMsg(data)
		if err != nil {
			return
		}
		again, err := decodeEngineMsg(encodeEngineMsg(m))
		if err != nil {
			t.Fatalf("re-decode of a valid message failed: %v", err)
		}
		if again.Kind != m.Kind {
			t.Fatalf("kind changed across round-trip: %v -> %v", m.Kind, again.Kind)
		}
		if (m.State == nil) != (again.State == nil) ||
			(m.CPC == nil) != (again.CPC == nil) ||
			(m.Retrans == nil) != (again.Retrans == nil) ||
			(m.Snap == nil) != (again.Snap == nil) ||
			len(m.Batch) != len(again.Batch) {
			t.Fatal("payload presence changed across round-trip")
		}
	})
}
