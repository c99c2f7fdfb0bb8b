// Package train provides the loss, optimizers and mini-batch loop used to
// pre-train the sensitive-content classifiers before they are frozen and
// deployed into the TEE (the paper assumes "a pre-trained ML classifier",
// §II; training happens offline, outside the device).
package train

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ml/layers"
	"repro/internal/ml/tensor"
)

// Errors returned by the package.
var (
	// ErrBadLabels is returned when labels disagree with logits.
	ErrBadLabels = errors.New("train: labels mismatch logits")
	// ErrNoData is returned for empty datasets.
	ErrNoData = errors.New("train: empty dataset")
)

// SoftmaxCrossEntropy computes mean cross-entropy over a batch of logits
// [B, C] with integer labels, and the gradient w.r.t. the logits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	if logits.Dims() != 2 || logits.Dim(0) != len(labels) {
		return 0, nil, fmt.Errorf("%w: logits %v, %d labels", ErrBadLabels, logits.Shape, len(labels))
	}
	B, C := logits.Dim(0), logits.Dim(1)
	probs, err := tensor.SoftmaxRows(logits)
	if err != nil {
		return 0, nil, err
	}
	grad := probs.Clone()
	var loss float64
	for b := 0; b < B; b++ {
		y := labels[b]
		if y < 0 || y >= C {
			return 0, nil, fmt.Errorf("%w: label %d with %d classes", ErrBadLabels, y, C)
		}
		p := float64(probs.At(b, y))
		loss -= math.Log(p + 1e-12)
		grad.Set(grad.At(b, y)-1, b, y)
	}
	grad.ScaleInPlace(1 / float32(B))
	return loss / float64(B), grad, nil
}

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and implicitly consumes the gradients.
	Step(params []*layers.Param)
	// ZeroGrad clears accumulated gradients.
	ZeroGrad(params []*layers.Param)
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity map[*layers.Param]*tensor.Tensor
}

// NewSGD creates an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*layers.Param]*tensor.Tensor)}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*layers.Param) {
	for _, p := range params {
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.Value.Shape...)
			s.velocity[p] = v
		}
		for i := range p.Value.Data {
			v.Data[i] = float32(s.Momentum)*v.Data[i] - float32(s.LR)*p.Grad.Data[i]
			p.Value.Data[i] += v.Data[i]
		}
	}
}

// ZeroGrad implements Optimizer.
func (s *SGD) ZeroGrad(params []*layers.Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*layers.Param]*tensor.Tensor
}

// NewAdam creates an Adam optimizer with standard defaults for unset betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*layers.Param]*tensor.Tensor),
		v: make(map[*layers.Param]*tensor.Tensor),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*layers.Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape...)
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = tensor.New(p.Value.Shape...)
			a.v[p] = v
		}
		for i := range p.Value.Data {
			g := float64(p.Grad.Data[i])
			mi := a.Beta1*float64(m.Data[i]) + (1-a.Beta1)*g
			vi := a.Beta2*float64(v.Data[i]) + (1-a.Beta2)*g*g
			m.Data[i] = float32(mi)
			v.Data[i] = float32(vi)
			p.Value.Data[i] -= float32(a.LR * (mi / bc1) / (math.Sqrt(vi/bc2) + a.Eps))
		}
	}
}

// ZeroGrad implements Optimizer.
func (a *Adam) ZeroGrad(params []*layers.Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// Sample is one training example: a feature tensor (without batch axis
// encoded; X rows are packed by the trainer) and an integer class label.
type Sample struct {
	X []float32
	Y int
}

// Config drives the training loop.
type Config struct {
	Epochs    int
	BatchSize int
	Seed      uint64
	// Shape is the per-sample feature shape (the trainer prepends batch).
	Shape []int
	// Quiet suppresses the per-epoch progress callback.
	Progress func(epoch int, loss float64)
}

// Result summarizes a finished run.
type Result struct {
	Epochs    int
	FinalLoss float64
}

// Fit enables model's gradients and trains it on samples with opt.
func Fit(model layers.Layer, opt Optimizer, samples []Sample, cfg Config) (Result, error) {
	if len(samples) == 0 {
		return Result{}, ErrNoData
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	featLen := len(samples[0].X)
	for i, s := range samples {
		if len(s.X) != featLen {
			return Result{}, fmt.Errorf("%w: sample %d has %d features, want %d", ErrBadLabels, i, len(s.X), featLen)
		}
	}
	layers.EnableGrad(model)
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xfeed))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		batches := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			idx := order[start:end]
			B := len(idx)
			x := tensor.New(append([]int{B}, cfg.Shape...)...)
			labels := make([]int, B)
			for bi, si := range idx {
				copy(x.Data[bi*featLen:(bi+1)*featLen], samples[si].X)
				labels[bi] = samples[si].Y
			}
			logits, err := model.Forward(x)
			if err != nil {
				return Result{}, fmt.Errorf("epoch %d forward: %w", epoch, err)
			}
			loss, grad, err := SoftmaxCrossEntropy(logits, labels)
			if err != nil {
				return Result{}, fmt.Errorf("epoch %d loss: %w", epoch, err)
			}
			if _, err := model.Backward(grad); err != nil {
				return Result{}, fmt.Errorf("epoch %d backward: %w", epoch, err)
			}
			opt.Step(model.Params())
			opt.ZeroGrad(model.Params())
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Progress != nil {
			cfg.Progress(epoch, lastLoss)
		}
	}
	return Result{Epochs: cfg.Epochs, FinalLoss: lastLoss}, nil
}

// Evaluate runs the model over samples and returns classification metrics.
func Evaluate(model layers.Layer, samples []Sample, shape []int) (Metrics, error) {
	if len(samples) == 0 {
		return Metrics{}, ErrNoData
	}
	featLen := len(samples[0].X)
	var m Metrics
	const batch = 32
	for start := 0; start < len(samples); start += batch {
		end := start + batch
		if end > len(samples) {
			end = len(samples)
		}
		B := end - start
		x := tensor.New(append([]int{B}, shape...)...)
		for bi := 0; bi < B; bi++ {
			copy(x.Data[bi*featLen:(bi+1)*featLen], samples[start+bi].X)
		}
		logits, err := model.Forward(x)
		if err != nil {
			return Metrics{}, err
		}
		pred, err := tensor.ArgMaxRows(logits)
		if err != nil {
			return Metrics{}, err
		}
		for bi := 0; bi < B; bi++ {
			m.Observe(samples[start+bi].Y, pred[bi])
		}
	}
	return m, nil
}

// Metrics accumulates binary-classification counts (class 1 = positive,
// i.e. "sensitive").
type Metrics struct {
	TP, TN, FP, FN int
}

// Observe records one (truth, prediction) pair.
func (m *Metrics) Observe(truth, pred int) {
	switch {
	case truth == 1 && pred == 1:
		m.TP++
	case truth == 0 && pred == 0:
		m.TN++
	case truth == 0 && pred == 1:
		m.FP++
	default:
		m.FN++
	}
}

// Total returns the number of observations.
func (m Metrics) Total() int { return m.TP + m.TN + m.FP + m.FN }

// Accuracy returns the fraction classified correctly.
func (m Metrics) Accuracy() float64 {
	if m.Total() == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(m.Total())
}

// Precision returns TP / (TP + FP).
func (m Metrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP / (TP + FN) — the fraction of sensitive content caught,
// the security-critical number for the paper's filter.
func (m Metrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m Metrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
