package db

// This file implements decode-time dependency analysis for the parallel
// green applier (DESIGN.md § 10). Every encoded update is decoded once
// and classified; the classification and the extracted read/write key
// sets drive the conflict scheduler in parallel.go.

// updateClass partitions updates by how freely they may be reordered or
// overlapped inside one totally-ordered batch.
type updateClass uint8

const (
	// classStrict updates (set/del, or any mix of simple ops) carry
	// exact read/write key sets; they may run concurrently with updates
	// whose key sets do not conflict.
	classStrict updateClass = iota
	// classCommutative updates consist solely of add ops (§ 6
	// commutative semantics): their effects are deltas that merge
	// correctly under any interleaving with each other.
	classCommutative
	// classTimestamp updates consist solely of tsset ops (§ 6 timestamp
	// semantics): the highest timestamp wins regardless of order.
	classTimestamp
	// classComplex updates contain cas, proc, or unrecognized ops whose
	// key sets cannot be determined statically; they act as full
	// barriers and execute alone, in total order, via the sequential
	// applier.
	classComplex
)

func (c updateClass) String() string {
	switch c {
	case classStrict:
		return "strict"
	case classCommutative:
		return "commutative"
	case classTimestamp:
		return "timestamp"
	case classComplex:
		return "complex"
	}
	return "unknown"
}

// analyzed is the decode-time view of one encoded update.
type analyzed struct {
	ops   []Op
	class updateClass
	// reads holds keys whose current value the update observes (add
	// reads the stored integer, tsset compares the stored timestamp);
	// writes holds keys the update may modify. Complex updates have nil
	// sets — their barrier classification makes the sets irrelevant.
	reads  []string
	writes []string
	// decErr records a deterministic decode failure; such an update
	// aborts without effects (the version still advances), so it needs
	// no key sets and never conflicts.
	decErr error
}

// analyzeUpdate decodes an update and extracts its class and key sets.
// The op-kind switch below must stay in lockstep with applyOps and
// evalOps; keysetvet_test.go enforces that mechanically.
func analyzeUpdate(update []byte) *analyzed {
	ops, err := decodeUpdate(update)
	if err != nil {
		// The sequential path (applyUpdate) shares this decoder, so the
		// determinism oracle sees identical abort messages from both
		// appliers.
		return &analyzed{decErr: err}
	}
	an := &analyzed{ops: ops}
	allAdd, allTS, any := true, true, false
	for _, op := range ops {
		switch op.Kind {
		case "noop":
			// No keys, no effect; does not influence the class.
			continue
		case "set", "del":
			an.writes = append(an.writes, op.Key)
			allAdd, allTS = false, false
		case "add":
			an.reads = append(an.reads, op.Key)
			an.writes = append(an.writes, op.Key)
			allTS = false
		case "tsset":
			an.reads = append(an.reads, op.Key)
			an.writes = append(an.writes, op.Key)
			allAdd = false
		default:
			// cas and proc touch keys chosen at execution time (guard
			// bodies, procedure logic); so do unknown kinds. All are
			// barriers.
			an.class = classComplex
			an.reads, an.writes = nil, nil
			return an
		}
		any = true
	}
	switch {
	case any && allAdd:
		an.class = classCommutative
	case any && allTS:
		an.class = classTimestamp
	default:
		an.class = classStrict
	}
	return an
}
