package gp

import (
	"encoding/json"
	"fmt"

	"gptunecrowd/internal/kernel"
)

// ModelData is the portable form of a fitted GP: everything needed to
// reconstruct predictions exactly (training inputs, raw targets, kernel
// family and hyperparameters). This is what the shared database stores
// for "pre-trained surrogate performance models of source tasks"
// (Section V-A-1 of the paper).
type ModelData struct {
	Kernel      string      `json:"kernel"`
	Dim         int         `json:"dim"`
	Categorical []bool      `json:"categorical,omitempty"`
	LogLength   []float64   `json:"log_length"`
	LogVar      float64     `json:"log_var"`
	LogNoise    float64     `json:"log_noise"`
	X           [][]float64 `json:"x"`
	Y           []float64   `json:"y"`
}

// Export captures the fitted model. The Y values are reconstructed in
// original units from the standardized targets.
func (g *GP) Export() *ModelData {
	n := len(g.x)
	// The GP stores alpha = K⁻¹·ys rather than the targets themselves,
	// so recover them as ys = (K_f + σ²I)·alpha and de-standardize.
	ys := make([]float64, n)
	K := g.kern.Matrix(g.x, g.hyper)
	K.AddDiag(g.NoiseVar())
	for i := 0; i < n; i++ {
		row := K.Row(i)
		var s float64
		for j := 0; j < n; j++ {
			s += row[j] * g.alpha[j]
		}
		ys[i] = g.meanY + g.stdY*s
	}
	X := make([][]float64, n)
	for i, x := range g.x {
		X[i] = append([]float64(nil), x...)
	}
	return &ModelData{
		Kernel:      g.kern.Type.String(),
		Dim:         g.kern.Dim,
		Categorical: append([]bool(nil), g.kern.Categorical...),
		LogLength:   append([]float64(nil), g.hyper.LogLength...),
		LogVar:      g.hyper.LogVar,
		LogNoise:    g.lnoise,
		X:           X,
		Y:           ys,
	}
}

// Restore rebuilds a GP from exported data (refactorizing the
// covariance; no hyperparameter optimization).
func Restore(d *ModelData) (*GP, error) {
	if d == nil || len(d.X) == 0 {
		return nil, fmt.Errorf("gp: empty model data")
	}
	kt, err := kernel.ParseType(d.Kernel)
	if err != nil {
		return nil, err
	}
	if len(d.LogLength) != d.Dim {
		return nil, fmt.Errorf("gp: %d length scales for dim %d", len(d.LogLength), d.Dim)
	}
	kern := &kernel.Kernel{Type: kt, Dim: d.Dim, Categorical: d.Categorical}
	hyper := &kernel.Hyper{LogLength: append([]float64(nil), d.LogLength...), LogVar: d.LogVar}
	// The targets are standardized exactly as Fit does; LogNoise is in
	// standardized units already.
	return fitFixed(d.X, d.Y, kern, hyper, d.LogNoise)
}

// MarshalJSON serializes the fitted model.
func (g *GP) MarshalJSON() ([]byte, error) { return json.Marshal(g.Export()) }

// FromJSON reconstructs a model serialized with MarshalJSON.
func FromJSON(data []byte) (*GP, error) {
	var d ModelData
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("gp: bad model JSON: %w", err)
	}
	return Restore(&d)
}
