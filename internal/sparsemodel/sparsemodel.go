// Package sparsemodel provides synthetic sparse-matrix statistics that
// stand in for the SuiteSparse matrices used in the paper's SuperLU_DIST
// case study (Si5H12 and H2O from the PARSEC group). The statistics —
// dimension, nonzeros, and per-ordering fill factors — drive the
// factorization cost models; matrices from the same "group" share fill
// behaviour, which is exactly the property the paper exploits when it
// transfers a sensitivity analysis from Si5H12 to H2O.
package sparsemodel

import (
	"fmt"
	"math"
)

// Matrix describes a sparse matrix by the statistics the solver cost
// models need.
type Matrix struct {
	Name  string
	Group string // matrices in one group share sparsity character
	N     int    // dimension
	NNZ   int    // structural nonzeros
	// FillBase is the fill-in growth exponent of the group: nnz(L+U) ≈
	// NNZ · fill(ordering) where fill depends on the ordering quality
	// and FillBase scales the group's inherent fill tendency.
	FillBase float64
	// SymPattern in [0,1]: how symmetric the pattern is (affects which
	// orderings work well).
	SymPattern float64
}

// Orderings supported by the cost model, mirroring SuperLU_DIST's
// COLPERM options.
var Orderings = []string{"NATURAL", "MMD_ATA", "MMD_AT_PLUS_A", "COLAMD", "METIS_AT_PLUS_A"}

// FillFactor returns the modeled ratio nnz(L+U)/nnz(A) for the given
// column ordering. NATURAL is catastrophic on PARSEC-like matrices;
// METIS is best; the MMD variants and COLAMD fall in between, with the
// AT_PLUS_A variants helped by pattern symmetry.
func (m Matrix) FillFactor(ordering string) (float64, error) {
	var base float64
	switch ordering {
	case "NATURAL":
		base = 40
	case "MMD_ATA":
		base = 11
	case "MMD_AT_PLUS_A":
		base = 9 - 2*m.SymPattern
	case "COLAMD":
		base = 8.5
	case "METIS_AT_PLUS_A":
		base = 6 - 1.5*m.SymPattern
	default:
		return 0, fmt.Errorf("sparsemodel: unknown ordering %q", ordering)
	}
	// Larger matrices of the same group fill slightly more.
	scale := math.Pow(float64(m.N)/20000.0, 0.12)
	return base * m.FillBase * scale, nil
}

// FactorFlops estimates the LU factorization flop count for the given
// ordering: flops ≈ c · nnz(L+U)² / N (the usual supernodal estimate).
func (m Matrix) FactorFlops(ordering string) (float64, error) {
	fill, err := m.FillFactor(ordering)
	if err != nil {
		return 0, err
	}
	nnzLU := fill * float64(m.NNZ)
	return 1.2 * nnzLU * nnzLU / float64(m.N), nil
}

// Si5H12 returns the PARSEC-group matrix used for the paper's
// sensitivity analysis (n = 19,896; nnz = 738,598).
func Si5H12() Matrix {
	return Matrix{Name: "Si5H12", Group: "PARSEC", N: 19896, NNZ: 738598, FillBase: 1.0, SymPattern: 0.95}
}

// H2O returns the PARSEC-group matrix used for the paper's reduced-space
// tuning experiment (n = 67,024; nnz = 2,216,736). Same group as
// Si5H12, hence a similar sparsity pattern.
func H2O() Matrix {
	return Matrix{Name: "H2O", Group: "PARSEC", N: 67024, NNZ: 2216736, FillBase: 1.05, SymPattern: 0.95}
}
