package ml

import (
	"fmt"
	"math"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/rng"
	"nimbus/internal/vec"
)

// refEval is the one-vector-at-a-time evaluation EvalBatch must reproduce:
// each row's margin is vec.Dot, each loss term is added in row order.
func refEval(l Loss, w []float64, d *dataset.Dataset) float64 {
	n := d.N()
	var s float64
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		m := vec.Dot(w, x)
		switch l := l.(type) {
		case SquaredLoss:
			s += (m - y) * (m - y)
		case LogisticLoss:
			s += Log1pExp(-y * m)
		case HingeLoss:
			if h := 1 - y*m; h > 0 {
				s += h
			}
		case ZeroOneLoss:
			if (m > 0) != (y > 0) {
				s++
			}
		default:
			panic(fmt.Sprintf("refEval: unexpected loss %T", l))
		}
	}
	switch l := l.(type) {
	case SquaredLoss:
		return s/(2*float64(n)) + l.Reg*vec.SqNorm2(w)
	case LogisticLoss:
		return s/float64(n) + l.Reg*vec.SqNorm2(w)
	case HingeLoss:
		return s/float64(n) + l.Reg*vec.SqNorm2(w)
	}
	return s / float64(n)
}

// randomData draws an n×d relation; classification labels are random signs.
func randomData(t *testing.T, src *rng.Source, task dataset.Task, n, d int) *dataset.Dataset {
	t.Helper()
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = src.Normal(0, 1)
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = src.Normal(0, 2)
		if task == dataset.Classification {
			y[i] = 1
			if src.Float64() < 0.5 {
				y[i] = -1
			}
		}
	}
	ds, err := dataset.New("random", task, m, y)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestEvalBatchMatchesEvalBitForBit(t *testing.T) {
	src := rng.New(11)
	losses := []Loss{SquaredLoss{Reg: 1e-3}, LogisticLoss{Reg: 1e-3}, HingeLoss{Reg: 1e-3}, ZeroOneLoss{}}
	for _, dim := range []int{1, 9, 90} {
		for _, n := range []int{1, 37} {
			reg := randomData(t, src, dataset.Regression, n, dim)
			cls := randomData(t, src, dataset.Classification, n, dim)
			for width := 1; width <= 9; width++ {
				ws := make([][]float64, width)
				for j := range ws {
					// Spread the scales so the logistic term takes all
					// three of Log1pExp's branches, and make one vector
					// zero so the zero-one tie rule is exercised.
					ws[j] = src.NormalVec(dim, math.Pow(10, float64(j%4)-1))
					if j == 2 {
						ws[j] = make([]float64, dim)
					}
				}
				for _, l := range losses {
					data := cls
					if l.Name() == "squared" {
						data = reg
					}
					out := make([]float64, width)
					for j := range out {
						out[j] = math.NaN() // EvalBatch must overwrite, not accumulate
					}
					l.EvalBatch(ws, data, out)
					for j, w := range ws {
						want := refEval(l, w, data)
						if math.Float64bits(out[j]) != math.Float64bits(want) {
							t.Errorf("%s d=%d n=%d width=%d: EvalBatch[%d] = %v, per-vector reference %v",
								l.Name(), dim, n, width, j, out[j], want)
						}
						if got := l.Eval(w, data); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s d=%d n=%d: Eval = %v, per-vector reference %v", l.Name(), dim, n, got, want)
						}
					}
				}
			}
		}
	}
}

func TestEvalBatchRejectsMismatchedShapes(t *testing.T) {
	data := randomData(t, rng.New(3), dataset.Classification, 5, 3)
	for name, call := range map[string]func(){
		"short out":     func() { LogisticLoss{}.EvalBatch([][]float64{{1, 2, 3}}, data, nil) },
		"long out":      func() { ZeroOneLoss{}.EvalBatch([][]float64{{1, 2, 3}}, data, make([]float64, 2)) },
		"short weights": func() { HingeLoss{}.EvalBatch([][]float64{{1, 2, 3}, {1, 2}}, data, make([]float64, 2)) },
		"long weights":  func() { SquaredLoss{}.Eval([]float64{1, 2, 3, 4}, data) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

func TestEvalDoesNotAllocate(t *testing.T) {
	data := randomData(t, rng.New(4), dataset.Classification, 20, 6)
	w := rng.New(5).NormalVec(6, 1)
	for _, l := range []Loss{SquaredLoss{}, LogisticLoss{}, HingeLoss{}, ZeroOneLoss{}} {
		if allocs := testing.AllocsPerRun(20, func() { l.Eval(w, data) }); allocs != 0 {
			t.Errorf("%s: Eval allocates %v times per call", l.Name(), allocs)
		}
	}
}
