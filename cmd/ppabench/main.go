// Command ppabench regenerates the figures of the paper's evaluation
// section (§VI) and prints them as text tables. Run with -figure all
// (slow: every experiment) or a specific figure id.
//
// Usage:
//
//	ppabench -figure 8
//	ppabench -figure 14a -n 100
//	ppabench -figure all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ppabench:", err)
		os.Exit(1)
	}
}

// run parses args, regenerates the selected figures and prints their
// tables to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ppabench", flag.ContinueOnError)
	var (
		figure = fs.String("figure", "all", "figure to regenerate: 7, 8, 9, 10, 12, 13, 14a, 14b, 14c, 14d, all")
		n      = fs.Int("n", 100, "random topologies per Fig. 14 variant, positive")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 {
		return fmt.Errorf("-n: need a positive topology count, got %d", *n)
	}

	type job struct {
		id  string
		run func() ([]experiments.Result, error)
	}
	one := func(f func() (experiments.Result, error)) func() ([]experiments.Result, error) {
		return func() ([]experiments.Result, error) {
			r, err := f()
			return []experiments.Result{r}, err
		}
	}
	jobs := []job{
		{"7", one(experiments.Fig7)},
		{"8", one(experiments.Fig8)},
		{"9", one(experiments.Fig9)},
		{"10", func() ([]experiments.Result, error) {
			a, err := experiments.Fig10(1000)
			if err != nil {
				return nil, err
			}
			b, err := experiments.Fig10(2000)
			if err != nil {
				return nil, err
			}
			return []experiments.Result{a, b}, nil
		}},
		{"12", func() ([]experiments.Result, error) {
			a, err := experiments.Fig12Q1()
			if err != nil {
				return nil, err
			}
			b, err := experiments.Fig12Q2()
			if err != nil {
				return nil, err
			}
			return []experiments.Result{a, b}, nil
		}},
		{"13", func() ([]experiments.Result, error) {
			a, err := experiments.Fig13Q1()
			if err != nil {
				return nil, err
			}
			b, err := experiments.Fig13Q2()
			if err != nil {
				return nil, err
			}
			return []experiments.Result{a, b}, nil
		}},
		{"14a", one(func() (experiments.Result, error) { return experiments.Fig14a(*n) })},
		{"14b", one(func() (experiments.Result, error) { return experiments.Fig14b(*n) })},
		{"14c", one(func() (experiments.Result, error) { return experiments.Fig14c(*n) })},
		{"14d", one(func() (experiments.Result, error) { return experiments.Fig14d(*n) })},
	}

	if *figure != "all" && !slices.ContainsFunc(jobs, func(j job) bool { return j.id == *figure }) {
		return fmt.Errorf("-figure: unknown figure %q", *figure)
	}
	for _, j := range jobs {
		if *figure != "all" && *figure != j.id {
			continue
		}
		results, err := j.run()
		if err != nil {
			return fmt.Errorf("figure %s: %w", j.id, err)
		}
		for _, r := range results {
			fmt.Fprintln(stdout, r.String())
		}
	}
	return nil
}
