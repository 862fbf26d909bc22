// Package xcql is the paper's primary contribution: the XCQL compiler
// that translates temporal queries over the virtual temporal view into
// plain engine queries over the fragmented stream (Figure 3), under the
// three physical plans of §7:
//
//   - CaQ  (Construct-and-Query): materialize the whole temporal document,
//     then run the query on it.
//   - QaC  (Query-as-Construct): run directly on fragments, resolving
//     holes on demand from the root via get_fillers.
//   - QaC+ (tsid-indexed QaC): jump straight to the fillers a descendant
//     step needs using the tsid index, skipping hole reconciliation on
//     levels the query never touches, and cross a child step's holes in
//     one batched pass.
//
// The evaluator is shared across plans and the fragment plans share one
// intrinsic vocabulary; a mode is a translation (materialize first, or
// not; take the by-tsid shortcut, or not) plus the access path its store
// reads go through (fragment.Access), so measured differences between
// modes are plan differences — exactly the comparison of §7.
package xcql

import (
	"fmt"

	"xcql/internal/fragment"
)

// Mode selects the physical execution plan.
type Mode uint8

const (
	// CaQ constructs the full temporal document, then queries it.
	CaQ Mode = iota
	// QaC queries fragments directly, reconciling holes on demand along
	// the query path, starting from the root filler.
	QaC
	// QaCPlus is QaC with the tsid index: descendant steps over the whole
	// stream fetch exactly the fillers they need.
	QaCPlus
)

// access is the index the mode's store reads are served from. The two
// fragment plans translate to the same intrinsic vocabulary; this is the
// only place they part (QaC additionally skips the by-tsid shortcut in
// translation, which is what makes it the paper's QaC).
func (m Mode) access() fragment.AccessKind {
	if m == QaCPlus {
		return fragment.TSIDIndexAccess
	}
	return fragment.LogScanAccess
}

// String returns the paper's spelling of the mode.
func (m Mode) String() string {
	switch m {
	case CaQ:
		return "CaQ"
	case QaC:
		return "QaC"
	case QaCPlus:
		return "QaC+"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode parses a mode name as printed by String (case-sensitive).
//
// "QaC++", "qac++" and "QaCPlusPlus" name a fourth plan that no longer
// exists and parse as QaC+: its reads were QaC+'s. The spelling is kept
// only for wire compatibility (/v1/query, /v1/eval, xcqlsub) until the
// end-to-end harness under bench/ stops registering it (ROADMAP item 1 (a)).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "CaQ", "caq":
		return CaQ, nil
	case "QaC", "qac":
		return QaC, nil
	case "QaC+", "qac+", "QaCPlus", "QaC++", "qac++", "QaCPlusPlus":
		return QaCPlus, nil
	default:
		return 0, fmt.Errorf("xcql: unknown mode %q (want CaQ, QaC or QaC+)", s)
	}
}
