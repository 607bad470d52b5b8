// Comparison: the paper's §1/§8 argument, executable — why prior PM bug
// detectors cannot find persistency races. Three checkers run over the same
// CCEH insert protocol:
//
//   - a PMTest-style rule checker: the developer's annotations (ordering,
//     persistence) all PASS — the protocol is exactly as intended;
//   - an XFDetector-style cross-failure detector: finds reads of
//     unpersisted data in crash windows, but never a race on a store it saw
//     flushed;
//   - Yashme: reports the two persistency races (Pair.key, Pair.value) that
//     survive even when every flush lands, because the compiler may tear
//     the non-atomic commits.
//
// Run: go run ./examples/comparison
package main

import (
	"fmt"

	"yashme"
	"yashme/internal/pmm"
	"yashme/internal/pmtest"
	"yashme/internal/progs/cceh"
)

func main() {
	// 1. PMTest-style rules over the annotated insert protocol.
	var key, value pmm.Addr
	setup := func(h *pmm.Heap) {
		pair := h.AllocStruct("Pair", pmm.Layout{{Name: "key", Size: 8}, {Name: "value", Size: 8}})
		key, value = pair.F("key"), pair.F("value")
	}
	violations := pmtest.Check(setup, func(t *pmm.Thread, c *pmtest.Checker) {
		t.CAS64(key, 0, ^uint64(0))
		t.Store64(value, 10)
		t.MFence()
		t.Store64(key, 1)
		t.CLFlush(key)
		c.AssertOrderedBefore(value, key)
		c.AssertPersisted(key)
		c.AssertPersisted(value)
	})
	fmt.Printf("PMTest-style rules:        %d violations (the protocol is as the developer intended)\n", len(violations))

	// 2. Cross-failure detection on the full CCEH driver, through the same
	// engine (the xfd analysis pass, one crash per flush/fence point of the
	// given execution).
	xfdRaces := yashme.Run(cceh.New(4, nil), yashme.Options{
		Mode:            yashme.ModelCheck,
		PersistPolicies: []yashme.PersistPolicy{yashme.PersistLatest},
		Analyses:        []string{"xfd"},
	}).Report
	flushedClaims := 0
	for _, r := range xfdRaces.Races() {
		if r.Flushed {
			flushedClaims++
		}
	}
	fmt.Printf("XFDetector-style checker:  %d cross-failure races, %d on flushed stores (structurally impossible)\n",
		xfdRaces.Count(), flushedClaims)

	// 3. Yashme on the same driver.
	res := yashme.Run(cceh.New(4, nil), yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
	fmt.Printf("Yashme:                    %d persistency races %v\n", res.Report.Count(), res.Report.Fields())
	for _, r := range res.Report.Races() {
		if r.Flushed {
			fmt.Printf("  %s raced even though it was FLUSHED before the crash (prefix derivation)\n", r.Field)
		}
	}
}
