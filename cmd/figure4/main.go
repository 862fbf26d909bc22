// Command figure4 regenerates the paper's Figure 4: run time of XMark
// queries Q1, Q2 and Q5 over fragmented auction streams at three sizes,
// under the paper's three execution plans QaC+, QaC and CaQ.
//
//	figure4             # full grid at the paper's scales (0, 0.05, 0.1)
//	figure4 -quick      # small scales for a fast smoke run
//	figure4 -indexed    # ablation: indexed store instead of the paper's
//	                    # linear-scan get_fillers cost model
package main

import (
	"flag"
	"fmt"
	"os"

	"xcql/internal/evalbench"
)

func main() {
	quick := flag.Bool("quick", false, "use small scales for a fast run")
	indexed := flag.Bool("indexed", false, "use the indexed store (ablation) instead of the paper's scan cost model")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress")
	flag.Parse()

	scales := evalbench.Scales
	if *quick {
		scales = evalbench.QuickScales
	}
	var progress *os.File
	if !*quiet {
		progress = os.Stderr
	}
	rows, err := evalbench.RunFigure4(scales, !*indexed, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figure4:", err)
		os.Exit(1)
	}
	fmt.Println()
	if *indexed {
		fmt.Println("Figure 4 (ablation: indexed fragment store)")
	} else {
		fmt.Println("Figure 4 (paper cost model: get_fillers scans the fragment log)")
	}
	fmt.Println()
	fmt.Print(evalbench.FormatTable(rows))
	fmt.Println()
	fmt.Println("Speedup summary (paper: roughly an order of magnitude per step at the larger sizes)")
	fmt.Println()
	fmt.Print(evalbench.SpeedupSummary(rows))
}
