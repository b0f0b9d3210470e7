// Command tebench regenerates any table or figure from the paper's
// evaluation. Each experiment id maps to a runner in internal/experiments;
// see DESIGN.md §4 for the experiment index.
//
// Usage:
//
//	tebench [-scale small|full] [-seed N] [-epochs N] [-v] <experiment> [...]
//	tebench -list
//	tebench all
//
// Experiments: tab1 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// fig12 fig15 fig16 fig17 fig18 (fig10 and fig17 are two views of the same
// Abilene run, made once per invocation; "fig10" prints both), plus the §7
// future-work extensions ext-shift and ext-objectives. This is the one entry
// point for the paper's figures: no benchmark regenerates them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"harpte/internal/dataset"
	"harpte/internal/experiments"
)

func main() {
	var (
		scaleFlag = flag.String("scale", "small", "experiment scale: small or full")
		seed      = flag.Int64("seed", 1, "experiment seed")
		epochs    = flag.Int("epochs", 0, "override training epochs (0 = preset)")
		verbose   = flag.Bool("v", false, "print progress while running")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		csvDir    = flag.String("csv", "", "also write raw distributions as <dir>/<id>.csv where supported")
	)
	flag.Parse()

	scale := experiments.Small
	switch *scaleFlag {
	case "small":
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small or full)\n", *scaleFlag)
		os.Exit(2)
	}
	var progress experiments.Progress
	if *verbose {
		progress = experiments.Progress{W: os.Stderr}
	}

	runners := buildRunners(scale, *seed, *epochs, progress, *csvDir)
	if *list {
		for _, id := range sortedIDs(runners) {
			fmt.Println(id)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tebench [-scale small|full] <experiment>...; -list for ids")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = sortedIDs(runners)
	}
	for _, id := range args {
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		run(os.Stdout)
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func buildRunners(scale experiments.Scale, seed int64, epochs int, progress experiments.Progress, csvDir string) map[string]func(io.Writer) {
	dumpCSV := func(id string, r experiments.WriteCSV) {
		if csvDir == "" {
			return
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "tebench: csv:", err)
			return
		}
		f, err := os.Create(filepath.Join(csvDir, id+".csv"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tebench: csv:", err)
			return
		}
		defer f.Close()
		if err := r.CSV(f); err != nil {
			fmt.Fprintln(os.Stderr, "tebench: csv:", err)
		}
	}
	transfer := experiments.TransferConfig{Scale: scale, Seed: seed, Epochs: epochs, Progress: progress}
	cluster := experiments.ClusterConfig{Scale: scale, Seed: seed, Epochs: epochs, Progress: progress}
	schemes := experiments.SchemesConfig{Scale: scale, Seed: seed, Epochs: epochs, Progress: progress}
	failure := experiments.FailureConfig{SchemesConfig: schemes}

	// fig1, fig3 and fig15 read one dataset, and fig10 and fig17 print two
	// views of one Abilene failure sweep: each is computed once, on first use.
	genDataset := sync.OnceValue(func() *dataset.Dataset {
		cfg := experiments.AnonNetConfig(scale)
		cfg.Seed = seed
		return dataset.Generate(cfg)
	})
	abileneFailures := sync.OnceValue(func() *experiments.FailureResult { return experiments.Fig10And17(failure) })

	return map[string]func(io.Writer){
		"tab1": func(w io.Writer) { fmt.Fprint(w, experiments.Tab1(seed).Table) },
		"fig1": func(w io.Writer) {
			r := experiments.Fig1(genDataset(), 16)
			fmt.Fprint(w, r.Table)
			dumpCSV("fig1", r)
		},
		"fig3": func(w io.Writer) { fmt.Fprint(w, experiments.Fig3(genDataset()).Table) },
		"fig4": func(w io.Writer) {
			r := experiments.Fig4(transfer)
			fmt.Fprint(w, r.Table)
			dumpCSV("fig4", r)
		},
		"fig5": func(w io.Writer) { fmt.Fprint(w, experiments.Fig5(cluster).Table) },
		"fig6": func(w io.Writer) { fmt.Fprint(w, experiments.Fig6(cluster).Table) },
		"fig7": func(w io.Writer) {
			r := experiments.Fig7(schemes)
			fmt.Fprint(w, r.Table)
			dumpCSV("fig7", r)
		},
		"fig8": func(w io.Writer) {
			r := experiments.Fig8(schemes)
			fmt.Fprint(w, r.Table)
			dumpCSV("fig8", r)
		},
		"fig9": func(w io.Writer) {
			r := experiments.Fig9(failure)
			fmt.Fprint(w, r.Table)
			dumpCSV("fig9", r)
		},
		"fig10": func(w io.Writer) {
			res := abileneFailures()
			fmt.Fprint(w, res.Table)
			printBoxes(w, res)
			dumpCSV("fig10", res)
		},
		"fig11": func(w io.Writer) {
			fmt.Fprint(w, experiments.Fig11(experiments.Fig11Config{Scale: scale, Seed: seed, Progress: progress}).Table)
		},
		"fig12": func(w io.Writer) {
			for _, r := range experiments.Fig12(experiments.Fig12Config{Scale: scale, Seed: seed, Epochs: epochs, Progress: progress}) {
				fmt.Fprint(w, r.Table)
				dumpCSV("fig12-"+r.Predictor, r)
			}
		},
		"fig15": func(w io.Writer) { fmt.Fprint(w, experiments.Fig15(genDataset()).Table) },
		"fig16": func(w io.Writer) {
			r := experiments.Fig16(transfer)
			fmt.Fprint(w, r.Table)
			dumpCSV("fig16", r)
		},
		"fig17": func(w io.Writer) { printBoxes(w, abileneFailures()) },
		"fig18": func(w io.Writer) {
			r := experiments.Fig18(experiments.Fig18Config{Scale: scale, Seed: seed, Epochs: epochs, Progress: progress})
			fmt.Fprint(w, r.Table)
			dumpCSV("fig18", r)
		},
		"ext-shift": func(w io.Writer) {
			fmt.Fprint(w, experiments.ExtDemandShift(schemes).Table)
		},
		"ext-objectives": func(w io.Writer) {
			fmt.Fprint(w, experiments.ExtObjectives(schemes).Table)
		},
	}
}

// sortedIDs is what -list prints and the order `tebench all` runs in.
func sortedIDs(runners map[string]func(io.Writer)) []string {
	ids := make([]string, 0, len(runners))
	for id := range runners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// printBoxes renders the per-failure boxplot rows of Figures 9/17.
func printBoxes(w io.Writer, res *experiments.FailureResult) {
	t := &experiments.Table{
		Title:   fmt.Sprintf("%s per-failure boxplots (median / p90 / max)", res.Topology),
		Columns: []string{"failure", "HARP", "DOTE", "TEAL"},
	}
	for i := range res.Boxes["HARP"] {
		row := []string{res.Boxes["HARP"][i].Label}
		for _, s := range []string{"HARP", "DOTE", "TEAL"} {
			b := res.Boxes[s][i]
			row = append(row, fmt.Sprintf("%.2f/%.2f/%.2f", b.Median, b.P90, b.Max))
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t)
}
