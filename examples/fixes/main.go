// Fixes: the paper's repair recommendation, applied and re-checked. To fix
// a persistency race "the developers need to replace racing non-atomic
// stores with atomic ones... On x86 this incurs no overhead if one uses
// atomic stores with the memory_order_release memory ordering, because they
// are implemented with normal move instructions. But it ensures that
// compiler optimizations will not tear the store" (§7.2).
//
// This example runs the buggy CCEH insert protocol and its repaired
// variant side by side, then shows the analogous fix at the framework
// level: PMDK's redo log built with atomic publication from the start.
//
// Run: go run ./examples/fixes
package main

import (
	"fmt"

	"yashme"
	"yashme/internal/pmdk"
	"yashme/internal/progs/cceh"
)

func main() {
	buggy := yashme.Run(cceh.New(4, nil), yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
	fixed := yashme.Run(cceh.NewFixed(4, nil), yashme.Options{Mode: yashme.ModelCheck, Prefix: true})

	fmt.Printf("CCEH (as shipped):  %d races %v\n", buggy.Report.Count(), buggy.Report.Fields())
	fmt.Printf("CCEH (repaired):    %d races — key/value commits are atomic release stores\n", fixed.Report.Count())

	var buggyStats, fixedStats cceh.Stats
	yashme.RunOnce(cceh.New(6, &buggyStats), yashme.Options{Prefix: true}, 0, yashme.PersistLatest, 1)
	yashme.RunOnce(cceh.NewFixed(6, &fixedStats), yashme.Options{Prefix: true}, 0, yashme.PersistLatest, 1)
	fmt.Printf("functionality preserved: buggy recovered %d/6, fixed recovered %d/6\n",
		buggyStats.Found, fixedStats.Found)

	redo := yashme.Run(pmdk.NewRedoProg(nil), yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
	fmt.Printf("PMDK redo log:      %d races, %d benign — its valid-entry count is an atomic release store\n",
		redo.Report.Count(), redo.Report.BenignCount())
}
