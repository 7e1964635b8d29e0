// Package ml is the supervised-learning substrate of Nimbus: the ML models
// the broker's menu supports (Table 2 of the paper — linear regression,
// logistic regression, L2 linear SVM), their training and reporting error
// functions (λ and ε in the paper's notation), and the trainers that compute
// the optimal model instance h*_λ(D).
//
// A hypothesis h is a weight vector w ∈ R^d; classification labels are ±1.
package ml

import (
	"fmt"
	"math"

	"nimbus/internal/dataset"
	"nimbus/internal/vec"
)

// Loss is an error function λ(h, D) or ε(h, D): it scores a hypothesis on a
// dataset, averaged over the examples as in Table 2 of the paper.
type Loss interface {
	// Name identifies the loss in curves and the market menu.
	Name() string
	// Eval returns the averaged loss of weight vector w on d.
	//
	//lint:declassify a scalar averaged loss reveals model quality, not the coordinates of w
	Eval(w []float64, d *dataset.Dataset) float64
	// EvalBatch sets out[j] to Eval(ws[j], d) for every j, bit for bit,
	// scoring all of ws in one pass over the rows of d. It panics unless
	// len(out) == len(ws) and every ws[j] has d.D() coordinates.
	EvalBatch(ws [][]float64, d *dataset.Dataset, out []float64)
	// StrictlyConvex reports whether the loss is strictly convex in w, the
	// condition under which Theorem 4 guarantees the expected error is
	// monotone in the NCP.
	StrictlyConvex() bool
}

// GradLoss is a Loss with a (sub)gradient, usable by the gradient trainer.
type GradLoss interface {
	Loss
	// Grad returns ∇_w of the averaged loss at w on d.
	Grad(w []float64, d *dataset.Dataset) []float64
}

// SquaredLoss is the least-squares loss
//
//	λ(w, D) = 1/(2n) Σ (wᵀx − y)² + Reg·‖w‖²
//
// used both to train linear regression and to report regression error.
type SquaredLoss struct {
	// Reg is the optional L2 regularization coefficient µ.
	Reg float64
}

// Name implements Loss.
func (l SquaredLoss) Name() string { return "squared" }

// StrictlyConvex implements Loss. The squared loss is strictly convex in w
// whenever the design matrix has full column rank or Reg > 0; we report true
// since Nimbus always trains with at least a vanishing ridge.
func (l SquaredLoss) StrictlyConvex() bool { return true }

// Eval implements Loss.
func (l SquaredLoss) Eval(w []float64, d *dataset.Dataset) float64 {
	var out [1]float64
	l.EvalBatch([][]float64{w}, d, out[:])
	return out[0]
}

// EvalBatch implements Loss.
func (l SquaredLoss) EvalBatch(ws [][]float64, d *dataset.Dataset, out []float64) {
	var buf [marginBuf]float64
	b := newBatch(ws, d, out, buf[:])
	for m, ys := b.next(); len(ys) > 0; m, ys = b.next() {
		for i, y := range ys {
			for j, mj := range m[i*len(ws) : (i+1)*len(ws)] {
				r := mj - y
				out[j] += r * r
			}
		}
	}
	for j, w := range ws {
		out[j] = out[j]/(2*float64(d.N())) + l.Reg*vec.SqNorm2(w)
	}
}

// Grad implements GradLoss.
func (l SquaredLoss) Grad(w []float64, d *dataset.Dataset) []float64 {
	n := d.N()
	g := vec.Zeros(len(w))
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		r := vec.Dot(w, x) - y
		vec.AXPY(g, r/float64(n), x)
	}
	vec.AXPY(g, 2*l.Reg, w)
	return g
}

// LogisticLoss is the averaged logistic loss over ±1 labels
//
//	λ(w, D) = 1/n Σ log(1 + exp(−y·wᵀx)) + Reg·‖w‖².
type LogisticLoss struct {
	// Reg is the optional L2 regularization coefficient µ.
	Reg float64
}

// Name implements Loss.
func (l LogisticLoss) Name() string { return "logistic" }

// StrictlyConvex implements Loss.
func (l LogisticLoss) StrictlyConvex() bool { return true }

// Eval implements Loss.
func (l LogisticLoss) Eval(w []float64, d *dataset.Dataset) float64 {
	var out [1]float64
	l.EvalBatch([][]float64{w}, d, out[:])
	return out[0]
}

// EvalBatch implements Loss.
func (l LogisticLoss) EvalBatch(ws [][]float64, d *dataset.Dataset, out []float64) {
	var buf [marginBuf]float64
	b := newBatch(ws, d, out, buf[:])
	for m, ys := b.next(); len(ys) > 0; m, ys = b.next() {
		for i, y := range ys {
			for j, mj := range m[i*len(ws) : (i+1)*len(ws)] {
				out[j] += Log1pExp(-y * mj)
			}
		}
	}
	for j, w := range ws {
		out[j] = out[j]/float64(d.N()) + l.Reg*vec.SqNorm2(w)
	}
}

// Grad implements GradLoss.
func (l LogisticLoss) Grad(w []float64, d *dataset.Dataset) []float64 {
	n := d.N()
	g := vec.Zeros(len(w))
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		// d/dw log(1+e^{-y wᵀx}) = -y σ(-y wᵀx) x
		m := sigmoid(-y * vec.Dot(w, x))
		vec.AXPY(g, -y*m/float64(n), x)
	}
	vec.AXPY(g, 2*l.Reg, w)
	return g
}

// HingeLoss is the averaged hinge loss with mandatory L2 regularization
// (the paper's L2 linear SVM objective):
//
//	λ(w, D) = 1/n Σ max(0, 1 − y·wᵀx) + Reg·‖w‖².
type HingeLoss struct {
	// Reg is the L2 coefficient µ; the SVM objective requires Reg > 0 to be
	// strictly convex.
	Reg float64
}

// Name implements Loss.
func (l HingeLoss) Name() string { return "hinge" }

// StrictlyConvex implements Loss. Strict convexity comes entirely from the
// L2 term.
func (l HingeLoss) StrictlyConvex() bool { return l.Reg > 0 }

// Eval implements Loss.
func (l HingeLoss) Eval(w []float64, d *dataset.Dataset) float64 {
	var out [1]float64
	l.EvalBatch([][]float64{w}, d, out[:])
	return out[0]
}

// EvalBatch implements Loss.
func (l HingeLoss) EvalBatch(ws [][]float64, d *dataset.Dataset, out []float64) {
	var buf [marginBuf]float64
	b := newBatch(ws, d, out, buf[:])
	for m, ys := b.next(); len(ys) > 0; m, ys = b.next() {
		for i, y := range ys {
			for j, mj := range m[i*len(ws) : (i+1)*len(ws)] {
				if h := 1 - y*mj; h > 0 {
					out[j] += h
				}
			}
		}
	}
	for j, w := range ws {
		out[j] = out[j]/float64(d.N()) + l.Reg*vec.SqNorm2(w)
	}
}

// Grad implements GradLoss with the standard subgradient.
func (l HingeLoss) Grad(w []float64, d *dataset.Dataset) []float64 {
	n := d.N()
	g := vec.Zeros(len(w))
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		if 1-y*vec.Dot(w, x) > 0 {
			vec.AXPY(g, -y/float64(n), x)
		}
	}
	vec.AXPY(g, 2*l.Reg, w)
	return g
}

// ZeroOneLoss is the misclassification rate 1/n Σ 1[y ≠ sign(wᵀx)], the
// paper's reporting error ε for classification models. It is not convex;
// the pricing layer's error curve for it is exact under the Gaussian
// mechanism and a Monte-Carlo estimate under the others.
type ZeroOneLoss struct{}

// Name implements Loss.
func (ZeroOneLoss) Name() string { return "zero-one" }

// StrictlyConvex implements Loss.
func (ZeroOneLoss) StrictlyConvex() bool { return false }

// Eval implements Loss. Points exactly on the hyperplane count as positive
// predictions, matching the paper's 1{y = (wᵀx > 0)} convention.
func (l ZeroOneLoss) Eval(w []float64, d *dataset.Dataset) float64 {
	var out [1]float64
	l.EvalBatch([][]float64{w}, d, out[:])
	return out[0]
}

// EvalBatch implements Loss. The misclassifications are counted in
// float64, which is exact below 2^53 rows.
func (ZeroOneLoss) EvalBatch(ws [][]float64, d *dataset.Dataset, out []float64) {
	var buf [marginBuf]float64
	b := newBatch(ws, d, out, buf[:])
	for m, ys := b.next(); len(ys) > 0; m, ys = b.next() {
		for i, y := range ys {
			for j, mj := range m[i*len(ws) : (i+1)*len(ws)] {
				pred := 1.0
				if mj <= 0 {
					pred = -1
				}
				if pred != y {
					out[j]++
				}
			}
		}
	}
	for j := range out {
		out[j] /= float64(d.N())
	}
}

// marginBlock is how many weight vectors the margin kernel scores against
// a row together. Four independent accumulators hide the add latency that
// bounds vec.Dot's single chain.
const marginBlock = 4

// marginBuf sizes the stack scratch an EvalBatch keeps its margins in: 64
// rows of a four-vector block per kernel call.
const marginBuf = 64 * marginBlock

// batch walks a dataset for EvalBatch a chunk of rows at a time.
type batch struct {
	ws   [][]float64
	d    *dataset.Dataset
	m    []float64 // scratch for one chunk's margins, len(ws) per row
	rows int       // rows per chunk
	lo   int       // first row of the next chunk
}

// newBatch checks an EvalBatch call's shapes, zeroes out and sets up the
// walk, keeping the margins in buf unless a row's worth does not fit.
func newBatch(ws [][]float64, d *dataset.Dataset, out, buf []float64) batch {
	if len(out) != len(ws) {
		panic(fmt.Sprintf("ml: EvalBatch of %d weight vectors into %d results", len(ws), len(out)))
	}
	for j, w := range ws {
		if len(w) != d.D() {
			panic(fmt.Sprintf("ml: weight vector %d has %d coordinates, dataset has %d features", j, len(w), d.D()))
		}
	}
	clear(out)
	b := batch{ws: ws, d: d, m: buf, rows: max(1, len(buf)/max(1, len(ws)))}
	if b.rows*len(ws) > len(buf) {
		//lint:allocok once per call, only for batches wider than the stack scratch
		b.m = make([]float64, len(ws))
	}
	return b
}

// next returns the margins wᵀx of every weight vector at each row of the
// next chunk, row by row with len(ws) per row in ws order, and those rows'
// labels. ys is empty once every row has been scored. Each margin is
// summed over the coordinates in vec.Dot's order, one accumulator per
// weight vector, so it equals vec.Dot(w, x) bit for bit; a block of
// marginBlock vectors shares one pass over x.
func (b *batch) next() (m, ys []float64) {
	lo, hi := b.lo, min(b.lo+b.rows, b.d.N())
	if lo >= hi {
		return nil, nil
	}
	b.lo = hi
	k, cols := len(b.ws), b.d.D()
	xs := b.d.Features.Data[lo*cols : hi*cols]
	m = b.m[:(hi-lo)*k]
	j := 0
	for ; j+marginBlock <= k; j += marginBlock {
		w0, w1, w2, w3 := b.ws[j][:cols], b.ws[j+1][:cols], b.ws[j+2][:cols], b.ws[j+3][:cols]
		for r := 0; r < hi-lo; r++ {
			x := xs[r*cols : (r+1)*cols]
			var s0, s1, s2, s3 float64
			for c, v := range x {
				s0 += w0[c] * v
				s1 += w1[c] * v
				s2 += w2[c] * v
				s3 += w3[c] * v
			}
			mr := m[r*k+j : r*k+j+marginBlock]
			mr[0], mr[1], mr[2], mr[3] = s0, s1, s2, s3
		}
	}
	for ; j < k; j++ {
		w := b.ws[j][:cols]
		for r := 0; r < hi-lo; r++ {
			var s float64
			for c, v := range xs[r*cols : (r+1)*cols] {
				s += w[c] * v
			}
			m[r*k+j] = s
		}
	}
	return m, b.d.Target[lo:hi]
}

// LossByName returns the loss with the given name (for the HTTP API and the
// CLI), using the provided regularization where applicable.
func LossByName(name string, reg float64) (Loss, error) {
	switch name {
	case "squared":
		return SquaredLoss{Reg: reg}, nil
	case "logistic":
		return LogisticLoss{Reg: reg}, nil
	case "hinge":
		return HingeLoss{Reg: reg}, nil
	case "zero-one":
		return ZeroOneLoss{}, nil
	default:
		return nil, fmt.Errorf("ml: unknown loss %q", name)
	}
}

// sigmoid is the numerically-stable logistic function.
func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Log1pExp computes log(1+e^z) without overflow.
func Log1pExp(z float64) float64 {
	if z > 35 {
		return z
	}
	if z < -35 {
		return math.Exp(z)
	}
	return math.Log1p(math.Exp(z))
}
