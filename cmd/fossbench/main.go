// Command fossbench regenerates the paper's tables and figures (`make paper`
// runs it at the reduced -fast budgets).
//
// Usage:
//
//	fossbench [-scale 0.5] [-seed 1] [-fast] [-workload job] <experiment>
//
// where <experiment> is one of: table1, fig4, fig5, fig6, fig7, fig8,
// table2, fig9, all. Flags come before the experiment; anything after it is
// refused rather than silently dropped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/foss-db/foss/internal/experiments"
)

const usage = "usage: fossbench [flags] table1|fig4|fig5|fig6|fig7|fig8|table2|fig9|all"

// experiment regenerates one table or figure for workload wl into out.
type experiment func(out io.Writer, wl string, opts experiments.Opts) error

// rowless adapts an experiment function to experiment: fossbench prints the
// report the function writes and has no use for the rows it also returns.
func rowless[R any](f func(io.Writer, string, experiments.Opts) (R, error)) experiment {
	return func(out io.Writer, wl string, opts experiments.Opts) error {
		_, err := f(out, wl, opts)
		return err
	}
}

// single names every experiment that stands alone.
var single = map[string]experiment{
	"table1": func(out io.Writer, _ string, opts experiments.Opts) error {
		_, err := experiments.TableI(out, nil, opts)
		return err
	},
	"fig4": func(out io.Writer, _ string, opts experiments.Opts) error {
		rows, err := experiments.TableI(out, nil, opts)
		if err != nil {
			return err
		}
		experiments.Fig4(out, rows)
		return nil
	},
	"fig5":   rowless(experiments.Fig5),
	"fig6":   rowless(experiments.Fig6),
	"fig7":   rowless(experiments.Fig7),
	"fig8":   rowless(experiments.Fig8),
	"table2": rowless(experiments.TableII),
	"fig9": func(out io.Writer, wl string, opts experiments.Opts) error {
		_, err := experiments.Fig9(out, wl, opts, nil)
		return err
	},
}

// all is the sequence "all" runs; fig4 prints Table I on its way, so table1
// is not repeated.
var all = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "table2", "fig9"}

// run parses args and runs the one experiment they name, returning the
// process exit status: 2 for a usage error, 1 for a failed experiment.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fossbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale = fs.Float64("scale", 0.5, "data scale factor")
		seed  = fs.Int64("seed", 1, "random seed")
		fast  = fs.Bool("fast", false, "reduced training budgets")
		wl    = fs.String("workload", "job", "workload for single-workload experiments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// flag stops at the first positional, so `fig7 -fast` would leave -fast
	// unparsed: exactly one argument may remain.
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	names := []string{fs.Arg(0)}
	if names[0] == "all" {
		names = all
	}
	for _, name := range names {
		exp, ok := single[name]
		if !ok {
			fmt.Fprintf(stderr, "fossbench: unknown experiment %q\n", name)
			return 1
		}
		if err := exp(stdout, *wl, experiments.Opts{Scale: *scale, Seed: *seed, Fast: *fast}); err != nil {
			fmt.Fprintln(stderr, "fossbench:", err)
			return 1
		}
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
