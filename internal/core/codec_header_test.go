package core

import (
	"strings"
	"testing"

	"evsdb/internal/types"
)

// The engine frame opens with [magic][version][kind]; these tests pin
// the header bytes and the loud rejection of mixed-version peers.

func TestEngineCodecFrameHeader(t *testing.T) {
	frame := encodeEngineMsg(engineMsg{Kind: emCPC, CPC: &cpcMsg{
		Server: "s00", Conf: types.ConfID{Counter: 1, Proposer: "s00"},
	}})
	if len(frame) < 3 {
		t.Fatalf("frame too short: %d bytes", len(frame))
	}
	if frame[0] != engineMagic {
		t.Fatalf("frame[0] = %#x, want magic %#x", frame[0], engineMagic)
	}
	if frame[1] != engineCodecV3 {
		t.Fatalf("frame[1] = %d, want version %d", frame[1], engineCodecV3)
	}
	if frame[2] != byte(emCPC) {
		t.Fatalf("frame[2] = %d, want kind %d", frame[2], emCPC)
	}
}

func TestEngineCodecVersionMismatchIsLoud(t *testing.T) {
	frame := encodeEngineMsg(engineMsg{Kind: emCPC, CPC: &cpcMsg{Server: "s00"}})
	frame[1] = engineCodecV3 + 1
	_, err := decodeEngineMsg(frame)
	if err == nil {
		t.Fatal("decode accepted a future-version frame")
	}
	if !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("version error not loud enough: %v", err)
	}
}

func TestEngineCodecRejectsWrongMagic(t *testing.T) {
	frame := encodeEngineMsg(engineMsg{Kind: emCPC, CPC: &cpcMsg{Server: "s00"}})
	frame[0] ^= 0xFF
	if _, err := decodeEngineMsg(frame); err == nil {
		t.Fatal("decode accepted a frame with the wrong magic byte")
	}
}
