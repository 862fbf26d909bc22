package main

import "time"

// The frozen workload shapes. Sizes are events per second of the run, so
// every input size follows from the run's -seconds; rates are events per
// second of the open loop.

func repeatRegs(n int, rs regSpec) []regSpec {
	out := make([]regSpec, n)
	for i := range out {
		out[i] = rs
	}
	return out
}

// fanoutRegs is ingest-fanout's 64 registrations of the pass-through
// query: 32 per plan, the first of each over WebSocket.
func fanoutRegs() []regSpec {
	var regs []regSpec
	for _, mode := range []string{"QaC+", "QaC++"} {
		regs = append(regs, regSpec{query: queryPassThrough, mode: mode, ws: true})
		regs = append(regs, repeatRegs(31, regSpec{query: queryPassThrough, mode: mode})...)
	}
	return regs
}

var streamSpecs = map[string]*streamSpec{
	"ingest-fanout": {
		name: "ingest-fanout", accounts: 200, step: time.Second, size: 600, pacedSize: 300, paceShare: 0.25,
		regs: fanoutRegs(), restart: true,
	},
	"standing-window": {
		name: "standing-window", accounts: 20, step: 10 * time.Second, size: 25, pacedSize: 25, paceShare: 0.3,
		regs: []regSpec{
			{query: queryFraud, mode: "QaC+", ws: true},
			{query: queryFilter, mode: "QaC+", ws: true},
		},
	},
}
