package core_test

import (
	"context"

	"repro/internal/core"
)

// runMatrix runs opt the way every matrix runs — as core.Run's one-point
// sweep — and returns that point's matrix.
func runMatrix(opt core.MatrixOptions) (*core.Matrix, error) {
	res, err := core.Run(context.Background(), opt, core.RunOptions{})
	if err != nil {
		return nil, err
	}
	return res.Points[0].Matrix, nil
}

// runSweep runs spec over opt through core.Run, without a cache or a
// progress stream.
func runSweep(opt core.MatrixOptions, spec string) (*core.SweepResult, error) {
	return core.Run(context.Background(), opt, core.RunOptions{Sweep: spec})
}
