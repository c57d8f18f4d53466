package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"evsdb/internal/evs"
	"evsdb/internal/types"
)

// One framed codec serves the wire and the WAL: version 3 of the wire,
// version 4 of the WAL. Wire version 3 and WAL version 3 made the bundle
// the only form an action takes: every action multicast is an emBatch of
// n >= 1, and every red, green and ongoing record is a batch record of
// n >= 1 (version 2 also had single-action kinds beside them). WAL
// version 4 adds a byte to the red record that says whether the live
// engine tracked its actions (see markRedBatch), so replay applies
// relaxed actions where the live engine did. Inside every action, the
// Update and Query bytes use the binary db payload codec
// (internal/db/codec.go), as since version 2. A log of another version is
// refused at recovery and another version's peer frames are dropped as
// foreign, both with ErrCodecVersion, rather than replayed or applied as
// aborts.
//
// Every engine message and every log record starts with a three-byte
// header:
//
//	[0] magic — engineMagic on the wire, walMagic in the log, so foreign
//	    traffic, and a frame of one replayed as the other, is rejected
//	[1] codec version — mixed-version frames fail loudly at decode
//	    instead of being mis-parsed
//	[2] message kind (engineMsgKind) or record kind (recKind)
//
// Hot kinds (emBatch and emRetrans — every ordered action pays one of
// these per hop; recRedBatch, recGreenBatch and recOngoingBatch — every
// action pays each once per replica) use a hand-rolled little-endian
// binary body built from the helpers below: JSON dominated the submit
// path's and then the log path's CPU and allocation profile. Rare kinds
// (emState, emCPC, emSnapshot, recState, recCheckpoint — one per view
// change, catch-up or sync point) keep JSON bodies behind the same
// header: they carry maps and nested snapshots where JSON's flexibility
// matters more than its cost.
const (
	engineMagic   = 0xEC
	engineCodecV3 = 3
	walMagic      = 0xE7
	walCodecV4    = 4
)

// ErrCodecVersion marks an engine frame or WAL record written by another
// codec version.
var ErrCodecVersion = errors.New("codec version mismatch")

// encBufs pools encode buffers for the multicast and log-append hot
// paths. Safe because every GroupCom and storage.Log implementation
// copies (or fully consumes) the payload before Multicast / Append
// returns, and getAction copies byte slices out of the frame rather than
// aliasing them.
var encBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// multicastMsg encodes m into a pooled buffer and multicasts it with
// Safe delivery (every engine message is Safe).
func multicastMsg(gc GroupCom, m engineMsg) error {
	bp := encBufs.Get().(*[]byte)
	buf := appendEngineMsg((*bp)[:0], m)
	err := gc.Multicast(buf, evs.Safe)
	*bp = buf[:0]
	encBufs.Put(bp)
	return err
}

func putU16(buf []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(buf, v) }
func putU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func putU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

func putStr(buf []byte, s string) []byte {
	buf = putU16(buf, uint16(len(s)))
	return append(buf, s...)
}

func getStr(buf []byte) (string, []byte, bool) {
	if len(buf) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n {
		return "", nil, false
	}
	return string(buf[:n]), buf[n:], true
}

// putBlob appends a u32-length-prefixed byte slice (nil and empty both
// encode as length 0 and decode as nil, matching the JSON codec's
// omitempty collapse).
func putBlob(buf []byte, b []byte) []byte {
	buf = putU32(buf, uint32(len(b)))
	return append(buf, b...)
}

// getBlob copies the blob out of the frame: decoded actions outlive the
// (possibly pooled or transport-owned) frame buffer.
func getBlob(buf []byte) ([]byte, []byte, bool) {
	if len(buf) < 4 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < n {
		return nil, nil, false
	}
	if n == 0 {
		return nil, buf, true
	}
	return append([]byte(nil), buf[:n]...), buf[n:], true
}

// appendAction appends the binary encoding of one action.
func appendAction(buf []byte, a types.Action) []byte {
	buf = putStr(buf, string(a.ID.Server))
	buf = putU64(buf, a.ID.Index)
	buf = append(buf, byte(a.Type), byte(a.Semantics))
	buf = putU64(buf, a.GreenLine)
	buf = putStr(buf, a.Client)
	buf = putU64(buf, a.ClientSeq)
	buf = putBlob(buf, a.Query)
	buf = putBlob(buf, a.Update)
	buf = putStr(buf, string(a.Target))
	return putStr(buf, a.Proc)
}

func getAction(buf []byte) (types.Action, []byte, bool) {
	var a types.Action
	var s string
	var ok bool
	if s, buf, ok = getStr(buf); !ok {
		return a, nil, false
	}
	a.ID.Server = types.ServerID(s)
	if len(buf) < 8+1+1+8 {
		return a, nil, false
	}
	a.ID.Index = binary.LittleEndian.Uint64(buf)
	a.Type = types.ActionType(buf[8])
	a.Semantics = types.Semantics(buf[9])
	a.GreenLine = binary.LittleEndian.Uint64(buf[10:])
	buf = buf[18:]
	if a.Client, buf, ok = getStr(buf); !ok {
		return a, nil, false
	}
	if len(buf) < 8 {
		return a, nil, false
	}
	a.ClientSeq = binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if a.Query, buf, ok = getBlob(buf); !ok {
		return a, nil, false
	}
	if a.Update, buf, ok = getBlob(buf); !ok {
		return a, nil, false
	}
	if s, buf, ok = getStr(buf); !ok {
		return a, nil, false
	}
	a.Target = types.ServerID(s)
	if a.Proc, buf, ok = getStr(buf); !ok {
		return a, nil, false
	}
	return a, buf, true
}

// appendActions appends a u32 count and that many actions.
func appendActions(buf []byte, acts []types.Action) []byte {
	buf = putU32(buf, uint32(len(acts)))
	for _, a := range acts {
		buf = appendAction(buf, a)
	}
	return buf
}

// getCount reads a u32 element count. An element encodes to at least
// minSize bytes; a count beyond what the rest of the frame could hold is a
// corrupt frame, not an allocation request.
func getCount(buf []byte, minSize int) (int, []byte, bool) {
	if len(buf) < 4 {
		return 0, nil, false
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	return n, buf, n <= len(buf)/minSize
}

func getActions(buf []byte) ([]types.Action, []byte, bool) {
	n, buf, ok := getCount(buf, 42) // the smallest action
	if !ok {
		return nil, nil, false
	}
	acts := make([]types.Action, n)
	for i := range acts {
		if acts[i], buf, ok = getAction(buf); !ok {
			return nil, nil, false
		}
	}
	return acts, buf, true
}

func appendActionID(buf []byte, id types.ActionID) []byte {
	return putU64(putStr(buf, string(id.Server)), id.Index)
}

func getActionID(buf []byte) (types.ActionID, []byte, bool) {
	s, buf, ok := getStr(buf)
	if !ok || len(buf) < 8 {
		return types.ActionID{}, nil, false
	}
	return types.ActionID{Server: types.ServerID(s), Index: binary.LittleEndian.Uint64(buf)}, buf[8:], true
}

// appendJSON appends the JSON body of a rare kind.
func appendJSON(buf []byte, v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: marshal %T: %v", v, err))
	}
	return append(buf, body...)
}

// appendEngineMsg appends the full framed encoding of m to buf.
func appendEngineMsg(buf []byte, m engineMsg) []byte {
	buf = append(buf, engineMagic, engineCodecV3, byte(m.Kind))
	switch m.Kind {
	case emBatch:
		return appendActions(buf, m.Batch)
	case emRetrans:
		r := m.Retrans
		var flags byte
		if r.Green {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = putU64(buf, r.GreenSeq)
		return appendAction(buf, r.Action)
	case emState, emCPC, emSnapshot:
		return appendJSON(buf, m)
	default:
		panic(fmt.Sprintf("core: encode unknown engine message kind %d", int(m.Kind)))
	}
}

// encodeEngineMsg returns the framed encoding of m in a fresh buffer.
func encodeEngineMsg(m engineMsg) []byte { return appendEngineMsg(nil, m) }

// frameBody checks a frame's three-byte header against the magic and
// version its reader expects and returns the kind byte and the body. what
// names the frame ("engine frame", "WAL record") in the errors.
func frameBody(buf []byte, magic, version byte, what string) (byte, []byte, error) {
	if len(buf) < 3 {
		return 0, nil, fmt.Errorf("core: %s too short (%d bytes)", what, len(buf))
	}
	if buf[0] != magic {
		return 0, nil, fmt.Errorf("core: %s has foreign magic 0x%02x, want 0x%02x", what, buf[0], magic)
	}
	if buf[1] != version {
		// Loud, specific failure: a mixed-version cluster, or a log written
		// by another codec version, must surface the incompatibility
		// instead of being mis-parsed.
		return 0, nil, fmt.Errorf("core: %s %w: frame v%d, this node speaks v%d",
			what, ErrCodecVersion, buf[1], version)
	}
	return buf[2], buf[3:], nil
}

func decodeEngineMsg(buf []byte) (engineMsg, error) {
	k, rest, err := frameBody(buf, engineMagic, engineCodecV3, "engine frame")
	if err != nil {
		return engineMsg{}, err
	}
	kind := engineMsgKind(k)
	bad := func() (engineMsg, error) {
		return engineMsg{}, fmt.Errorf("core: truncated engine frame (kind %d)", int(kind))
	}
	switch kind {
	case emBatch:
		batch, rest, ok := getActions(rest)
		if !ok || len(rest) != 0 {
			return bad()
		}
		return engineMsg{Kind: emBatch, Batch: batch}, nil
	case emRetrans:
		if len(rest) < 9 {
			return bad()
		}
		r := retransMsg{Green: rest[0]&1 != 0, GreenSeq: binary.LittleEndian.Uint64(rest[1:])}
		var ok bool
		if r.Action, rest, ok = getAction(rest[9:]); !ok || len(rest) != 0 {
			return bad()
		}
		return engineMsg{Kind: emRetrans, Retrans: &r}, nil
	case emState, emCPC, emSnapshot:
		var m engineMsg
		if err := json.Unmarshal(rest, &m); err != nil {
			return engineMsg{}, fmt.Errorf("core: unmarshal engine message: %w", err)
		}
		m.Kind = kind
		return m, nil
	default:
		return engineMsg{}, fmt.Errorf("core: unknown engine message kind %d", int(kind))
	}
}

// appendLogRecord appends the full framed encoding of one WAL record.
func appendLogRecord(buf []byte, rec logRecord) []byte {
	buf = append(buf, walMagic, walCodecV4, byte(rec.Kind))
	switch rec.Kind {
	case recRedBatch:
		if rec.Track {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		return appendActions(buf, rec.Actions)
	case recOngoingBatch:
		return appendActions(buf, rec.Actions)
	case recGreenBatch:
		buf = putU32(buf, uint32(len(rec.IDs)))
		for _, id := range rec.IDs {
			buf = appendActionID(buf, id)
		}
		return buf
	case recState:
		return appendJSON(buf, rec.State)
	case recCheckpoint:
		return appendJSON(buf, rec.Snap)
	default:
		panic(fmt.Sprintf("core: encode unknown WAL record kind %d", int(rec.Kind)))
	}
}

func decodeLogRecord(buf []byte) (logRecord, error) {
	k, rest, err := frameBody(buf, walMagic, walCodecV4, "WAL record")
	if err != nil {
		return logRecord{}, err
	}
	rec, ok := logRecord{Kind: recKind(k)}, false
	switch rec.Kind {
	case recRedBatch:
		if len(rest) > 0 && rest[0] <= 1 {
			rec.Track = rest[0] == 1
			rec.Actions, rest, ok = getActions(rest[1:])
		}
	case recOngoingBatch:
		rec.Actions, rest, ok = getActions(rest)
	case recGreenBatch:
		var n int
		if n, rest, ok = getCount(rest, 10); ok { // the smallest action id
			rec.IDs = make([]types.ActionID, n)
			for i := 0; ok && i < n; i++ {
				rec.IDs[i], rest, ok = getActionID(rest)
			}
		}
	case recState:
		rec.State = new(persistState)
		rest, ok, err = nil, true, json.Unmarshal(rest, rec.State)
	case recCheckpoint:
		rec.Snap = new(JoinSnapshot)
		rest, ok, err = nil, true, json.Unmarshal(rest, rec.Snap)
	default:
		return logRecord{}, fmt.Errorf("core: unknown WAL record kind %d", int(rec.Kind))
	}
	if err != nil {
		return logRecord{}, fmt.Errorf("core: unmarshal WAL record (kind %d): %w", int(rec.Kind), err)
	}
	if !ok || len(rest) != 0 {
		return logRecord{}, fmt.Errorf("core: truncated WAL record (kind %d)", int(rec.Kind))
	}
	return rec, nil
}
