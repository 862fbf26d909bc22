// Package xcql is the paper's primary contribution: the XCQL compiler
// that translates temporal queries over the virtual temporal view into
// plain engine queries over the fragmented stream (Figure 3), under four
// physical plans:
//
//   - CaQ  (Construct-and-Query): materialize the whole temporal document,
//     then run the query on it.
//   - QaC  (Query-as-Construct): run directly on fragments, resolving
//     holes on demand from the root via get_fillers.
//   - QaC+ (tsid-indexed QaC): jump straight to the fillers a descendant
//     step needs using the tsid index, skipping hole reconciliation on
//     levels the query never touches, and cross a child step's holes in
//     one batched pass.
//   - QaC++: the same plan as QaC+, paying for no lookup — every read goes
//     straight to the store's filler index, so evaluation never resolves a
//     hole and never scans the fragment log.
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
	// QaCPlusPlus is the QaC+ plan over the store's Dewey prefix-label
	// index: every read — root, child steps, descendant jumps, projections
	// and hole materialization — is an index fetch, so the plan resolves
	// zero holes and performs zero log scans.
	QaCPlusPlus
)

// access is the index the mode's store reads are served from. The three
// fragment plans translate to the same intrinsic vocabulary; this is the
// only place they part (QaC additionally skips the by-tsid shortcut in
// translation, which is what makes it the paper's QaC).
func (m Mode) access() fragment.AccessKind {
	switch m {
	case QaCPlus:
		return fragment.TSIDIndexAccess
	case QaCPlusPlus:
		return fragment.LabelIndexAccess
	default:
		return fragment.LogScanAccess
	}
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
	case QaCPlusPlus:
		return "QaC++"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode parses a mode name as printed by String (case-sensitive).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "CaQ", "caq":
		return CaQ, nil
	case "QaC", "qac":
		return QaC, nil
	case "QaC+", "qac+", "QaCPlus":
		return QaCPlus, nil
	case "QaC++", "qac++", "QaCPlusPlus":
		return QaCPlusPlus, nil
	default:
		return 0, fmt.Errorf("xcql: unknown mode %q (want CaQ, QaC, QaC+ or QaC++)", s)
	}
}
