package ml

import (
	"fmt"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/rng"
)

func benchReg(b *testing.B, n int) *dataset.Dataset {
	b.Helper()
	return dataset.Simulated1(dataset.GenConfig{Rows: n, Seed: 77})
}

func benchCls(b *testing.B, n int) *dataset.Dataset {
	b.Helper()
	return dataset.Simulated2(dataset.GenConfig{Rows: n, Seed: 78})
}

func BenchmarkLinearRegressionFit(b *testing.B) {
	d := benchReg(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LinearRegression{Ridge: 1e-4}).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogisticRegressionFit(b *testing.B) {
	d := benchCls(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LogisticRegression{Ridge: 1e-4}).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinearSVMFit(b *testing.B) {
	d := benchCls(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LinearSVM{Ridge: 1e-3, MaxIter: 500}).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSquaredLossEval(b *testing.B) {
	d := benchReg(b, 10000)
	w, err := LinearRegression{}.Fit(d)
	if err != nil {
		b.Fatal(err)
	}
	loss := SquaredLoss{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss.Eval(w, d)
	}
}

func BenchmarkZeroOneLossEval(b *testing.B) {
	d := benchCls(b, 10000)
	w, err := LogisticRegression{Ridge: 1e-4}.Fit(d)
	if err != nil {
		b.Fatal(err)
	}
	loss := ZeroOneLoss{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss.Eval(w, d)
	}
}

// BenchmarkEvalBatch scores noisy models the way the Monte-Carlo error
// transformation does at nimbusd's Simulated2 listing shape (d = 20, 2500
// test rows): w=4 is one EvalBatch call, w=1 is Eval. ns/model is the
// cost of one model's loss either way.
func BenchmarkEvalBatch(b *testing.B) {
	d := benchCls(b, 2500)
	src := rng.New(79)
	ws := make([][]float64, 4)
	for j := range ws {
		ws[j] = src.NormalVec(d.D(), 1)
	}
	out := make([]float64, len(ws))
	for _, l := range []Loss{SquaredLoss{}, LogisticLoss{}, HingeLoss{}, ZeroOneLoss{}} {
		for _, width := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/w=%d", l.Name(), width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l.EvalBatch(ws[:width], d, out[:width])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/model")
			})
		}
	}
}
