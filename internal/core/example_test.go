package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// ExampleRunOne runs one benchmark under one protocol configuration and
// inspects the headline quantities the paper reports.
func ExampleRunOne() {
	size := workloads.Tiny
	cfg := memsys.Default().Scaled(size.ScaleDiv())
	prog := workloads.MustByName("LU", size, 16)

	res, err := core.RunOne(cfg, "MESI", prog)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Protocol, res.Benchmark)
	fmt.Println("has traffic:", res.Total() > 0)
	fmt.Println("has exec time:", res.ExecCycles > 0)
	// Output:
	// MESI LU
	// has traffic: true
	// has exec time: true
}

// ExampleMatrix_Figure regenerates a figure table from an experiment
// matrix, exactly as cmd/trafficsim does: without a sweep spec, Run runs
// the matrix as its single point.
func ExampleMatrix_Figure() {
	res, err := core.Run(context.Background(), core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  []string{"MESI", "DBypFull"},
		Benchmarks: []string{"radix"},
	}, core.RunOptions{})
	if err != nil {
		panic(err)
	}
	m := res.Points[0].Matrix
	tab, _ := m.Figure("5.1a")
	fmt.Println(tab.ID, "rows:", len(tab.Rows))
	mesi := tab.Rows[0]
	fmt.Printf("%s normalizes to %.0f%%\n", mesi.Protocol, mesi.Total())
	fmt.Println("DBypFull below MESI:", tab.Rows[1].Total() < 100)
	// Output:
	// Fig 5.1a rows: 2
	// MESI normalizes to 100%
	// DBypFull below MESI: true
}
