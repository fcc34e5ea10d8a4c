// Command pvtdump inspects PVTR trace archives: definitions, per-rank
// statistics, raw event listings, the calling-context tree, and clock
// sanity checks.
//
//	pvtdump -trace run.pvt                    # summary
//	pvtdump -trace run.pvt -defs              # region/metric tables
//	pvtdump -trace run.pvt -events -rank 3 -max 50
//	pvtdump -trace run.pvt -calltree -depth 3
//	pvtdump -trace run.pvt -clockcheck
//	pvtdump -trace run.pvt -lint
//	pvtdump -trace run.pvt -stream            # summary without materializing
//
// Archives are loaded without validation so that damaged traces can be
// inspected; -lint appends the full static-analysis report (see
// cmd/pvtlint) to the dump.
package main

import (
	"flag"
	"fmt"
	"os"

	"perfvar"
	"perfvar/internal/callstack"
	"perfvar/internal/clockfix"
	"perfvar/internal/lint"
	"perfvar/internal/trace"
	"perfvar/internal/vis"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "input PVTR trace archive (required)")
		defs       = flag.Bool("defs", false, "print region and metric definitions")
		events     = flag.Bool("events", false, "print raw events")
		rank       = flag.Int("rank", 0, "rank for -events")
		maxEvents  = flag.Int("max", 40, "event cap for -events (0 = all)")
		calltree   = flag.Bool("calltree", false, "print the calling-context tree")
		depth      = flag.Int("depth", 3, "depth cap for -calltree (-1 = all)")
		clockcheck = flag.Bool("clockcheck", false, "check for clock-skew causality violations")
		minLatency = flag.Int64("minlatency", 1000, "assumed minimal network latency in ns for -clockcheck and -lint")
		runLint    = flag.Bool("lint", false, "append the static-analysis report (all analyzers)")
		stream     = flag.Bool("stream", false, "print the summary (and -defs) by streaming the archive, without materializing it")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "pvtdump: -trace is required")
		flag.Usage()
		os.Exit(2)
	}
	if *stream {
		if *events || *calltree || *clockcheck || *runLint {
			fmt.Fprintln(os.Stderr, "pvtdump: -events/-calltree/-clockcheck/-lint need the full trace and cannot combine with -stream")
			os.Exit(2)
		}
		if err := streamSummary(*tracePath, *defs); err != nil {
			fatal(err)
		}
		return
	}
	// Read without validating, so damaged traces can be inspected.
	tr, err := trace.ReadAnyFile(*tracePath)
	if err != nil {
		fatal(err)
	}
	if !*runLint {
		if verr := tr.Validate(); verr != nil {
			fmt.Fprintf(os.Stderr, "pvtdump: warning: trace fails validation (%v); run with -lint for the full diagnosis\n", verr)
		}
	}

	first, last := tr.Span()
	fmt.Printf("trace %q: %d ranks, %d events, %d regions, %d metrics, span %s\n",
		tr.Name, tr.NumRanks(), tr.NumEvents(), len(tr.Regions), len(tr.Metrics),
		vis.FormatDuration(float64(last-first)))

	if *defs {
		fmt.Println("\nregions:")
		for _, r := range tr.Regions {
			fmt.Printf("  %3d  %-30s %-8s %s\n", r.ID, r.Name, r.Paradigm, r.Role)
		}
		fmt.Println("metrics:")
		for _, m := range tr.Metrics {
			fmt.Printf("  %3d  %-40s %-10s %s\n", m.ID, m.Name, m.Unit, m.Mode)
		}
	}

	if *events {
		if *rank < 0 || *rank >= tr.NumRanks() {
			fatal(fmt.Errorf("rank %d out of range", *rank))
		}
		fmt.Printf("\nevents of rank %d:\n", *rank)
		for i, ev := range tr.Procs[*rank].Events {
			if *maxEvents > 0 && i >= *maxEvents {
				fmt.Printf("  ... %d more\n", len(tr.Procs[*rank].Events)-i)
				break
			}
			printEvent(tr, ev)
		}
	}

	if *calltree {
		tree, err := callstack.CallTreeOf(tr)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\ncalling-context tree:")
		if err := tree.Print(os.Stdout, *depth); err != nil {
			fatal(err)
		}
	}

	if *clockcheck {
		violations := clockfix.Violations(tr, *minLatency)
		fmt.Printf("\nclock check (min latency %d ns): %d causality violations\n",
			*minLatency, len(violations))
		for i, v := range violations {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(violations)-10)
				break
			}
			fmt.Printf("  rank %d -> %d (tag %d): sent %d, received %d (deficit %s)\n",
				v.Src, v.Dst, v.Tag, v.SendTime, v.RecvTime, vis.FormatDuration(float64(v.Deficit)))
		}
		if len(violations) > 0 {
			fmt.Println("  hint: run the analysis on a corrected trace (perfvar.CorrectClocks)")
		}
	}

	if *runLint {
		fmt.Println()
		res := lint.Run(tr, lint.Options{MinLatency: *minLatency})
		if err := res.WriteText(os.Stdout, 20); err != nil {
			fatal(err)
		}
		if res.HasErrors() {
			os.Exit(1)
		}
	}
}

// streamSummary prints the summary line (and optionally the definition
// tables) by streaming the archive event-by-event: the count and the
// span fold into one scan, so memory stays bounded by the definitions
// and no byte is decoded twice. Directory archives stream their rank
// files through the same tally.
func streamSummary(path string, defs bool) error {
	var (
		events      int64
		first, last trace.Time
		spanned     bool
	)
	tally := func(ev trace.Event) error {
		events++
		if !spanned || ev.Time < first {
			first = ev.Time
		}
		if !spanned || ev.Time > last {
			last = ev.Time
		}
		spanned = true
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	var h *trace.Header
	if fi.IsDir() {
		f.Close()
		ds, err := trace.OpenDirRankStreams(path)
		if err != nil {
			return err
		}
		h = ds.Header()
		for rank := 0; rank < ds.NumRanks(); rank++ {
			if err := ds.StreamRank(rank, tally); err != nil {
				return err
			}
		}
	} else {
		h, err = trace.Stream(f, func(_ trace.Rank, ev trace.Event) error { return tally(ev) })
		f.Close()
		if err != nil {
			return err
		}
	}
	fmt.Printf("trace %q: %d ranks, %d events, %d regions, %d metrics, span %s\n",
		h.Name, len(h.Procs), events, len(h.Regions), len(h.Metrics),
		vis.FormatDuration(float64(last-first)))
	if defs {
		fmt.Println("\nregions:")
		for _, r := range h.Regions {
			fmt.Printf("  %3d  %-30s %-8s %s\n", r.ID, r.Name, r.Paradigm, r.Role)
		}
		fmt.Println("metrics:")
		for _, m := range h.Metrics {
			fmt.Printf("  %3d  %-40s %-10s %s\n", m.ID, m.Name, m.Unit, m.Mode)
		}
	}
	return nil
}

func printEvent(tr *perfvar.Trace, ev trace.Event) {
	switch ev.Kind {
	case trace.KindEnter, trace.KindLeave:
		fmt.Printf("  %12d  %-6s %s\n", ev.Time, ev.Kind, tr.Region(ev.Region).Name)
	case trace.KindMetric:
		fmt.Printf("  %12d  metric %s = %g\n", ev.Time, tr.Metrics[ev.Metric].Name, ev.Value)
	case trace.KindSend:
		fmt.Printf("  %12d  send   -> rank %d (tag %d, %d bytes)\n", ev.Time, ev.Peer, ev.Tag, ev.Bytes)
	case trace.KindRecv:
		fmt.Printf("  %12d  recv   <- rank %d (tag %d, %d bytes)\n", ev.Time, ev.Peer, ev.Tag, ev.Bytes)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pvtdump:", err)
	os.Exit(1)
}
