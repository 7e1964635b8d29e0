// Package taint exercises the noise-taint rule: marked source fields,
// source functions, the sanitizer, declassification, interprocedural
// flows through results and parameters, stores into unmarked fields,
// and type-based exposure at sinks.
package taint

import "encoding/json"

// Model carries a raw trained model.
//
//lint:source Model.Raw
type Model struct {
	Raw    []float64
	Public string
}

// Mech is the test sanitizer: the rule config names its Perturb method.
type Mech struct{}

func (Mech) Perturb(w []float64) []float64 {
	out := make([]float64, len(w))
	copy(out, w)
	return out
}

// Fit is a configured source function: its slice result is born raw.
func Fit(rows int) []float64 { return make([]float64, rows) }

// Norm is a safe scalar aggregate of a raw model.
//
//lint:declassify the norm reveals magnitude, not coordinates
func Norm(w []float64) float64 {
	var s float64
	for _, v := range w {
		s += v * v
	}
	return s
}

// DirectSink marshals the raw slice straight out.
func DirectSink(m *Model) ([]byte, error) {
	return json.Marshal(m.Raw) // want noise-taint
}

// SanitizedSink perturbs first: clean.
func SanitizedSink(m *Model, k Mech) ([]byte, error) {
	return json.Marshal(k.Perturb(m.Raw))
}

// rawOf moves the raw slice through a helper's result.
func rawOf(m *Model) []float64 {
	return m.Raw
}

// IndirectSink leaks through the helper's summary (resultTainted).
func IndirectSink(m *Model) ([]byte, error) {
	return json.Marshal(rawOf(m)) // want noise-taint
}

// publish releases whatever it is handed; leaking is the caller's
// fault, so the finding lands at the call site, not here.
func publish(w []float64) {
	b, _ := json.Marshal(w)
	_ = b
}

// CallerLeak passes raw data to a releasing callee.
func CallerLeak(m *Model) {
	publish(m.Raw) // want noise-taint
}

// SanitizedCall perturbs before handing off: clean.
func SanitizedCall(m *Model, k Mech) {
	publish(k.Perturb(m.Raw))
}

type record struct {
	Weights []float64
}

// StoreUnmarked hides raw data in a field the rule cannot see through.
func StoreUnmarked(m *Model) record {
	return record{Weights: m.Raw} // want noise-taint
}

// DeclassifiedSink releases only the declassified aggregate: clean.
func DeclassifiedSink(m *Model) ([]byte, error) {
	return json.Marshal(Norm(m.Raw))
}

// ExposureSink marshals the whole struct: the marked field goes over
// the wire even though no tracked flow exists.
func ExposureSink(m *Model) ([]byte, error) {
	return json.Marshal(m) // want noise-taint
}

// SourceFuncSink releases a training output without noise.
func SourceFuncSink() ([]byte, error) {
	w := Fit(4)
	return json.Marshal(w) // want noise-taint
}

// LoopFlow propagates taint through range and append.
func LoopFlow(m *Model) ([]byte, error) {
	var out []float64
	for _, v := range m.Raw {
		out = append(out, v)
	}
	return json.Marshal(out) // want noise-taint
}

// Suppressed shows the escape hatch still works for group findings.
func Suppressed(m *Model) ([]byte, error) {
	//lint:ignore noise-taint golden: exercising suppression of a group finding
	return json.Marshal(m.Raw)
}

// fill copies a model into the caller's buffer element by element.
func fill(dst, src []float64) {
	for i, v := range src {
		dst[i] = v
	}
}

// FillSink releases a buffer a helper filled with the raw model.
func FillSink(m *Model) ([]byte, error) {
	buf := make([]float64, len(m.Raw))
	fill(buf, m.Raw)
	return json.Marshal(buf) // want noise-taint
}

// FillSanitized fills the buffer from a perturbed copy: clean.
func FillSanitized(m *Model, k Mech) ([]byte, error) {
	buf := make([]float64, len(m.Raw))
	fill(buf, k.Perturb(m.Raw))
	return json.Marshal(buf)
}

// load copies the source field into the caller's buffer itself.
func load(dst []float64, m *Model) {
	copy(dst, m.Raw)
}

// LoadSink releases a buffer a helper filled from a source field.
func LoadSink(m *Model) ([]byte, error) {
	buf := make([]float64, len(m.Raw))
	load(buf, m)
	return json.Marshal(buf) // want noise-taint
}

// fillNorm writes only a declassified aggregate into its buffer: clean.
func fillNorm(dst, src []float64) {
	dst[0] = Norm(src)
}

// NormSink releases the aggregate a helper wrote: clean.
func NormSink(m *Model) ([]byte, error) {
	buf := make([]float64, 1)
	fillNorm(buf, m.Raw)
	return json.Marshal(buf)
}
