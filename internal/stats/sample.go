package stats

import (
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// MVNSampler draws samples from a multivariate normal distribution
// N(mean, cov) using the Cholesky factor of cov. It powers the correlated
// parametric-test generator in internal/mfgtest.
type MVNSampler struct {
	Mean []float64
	chol *linalg.Matrix
}

// NewMVNSampler prepares a sampler for N(mean, cov). cov must be symmetric
// positive definite.
func NewMVNSampler(mean []float64, cov *linalg.Matrix) (*MVNSampler, error) {
	l, err := linalg.Cholesky(cov)
	if err != nil {
		return nil, err
	}
	return &MVNSampler{Mean: linalg.CopyVec(mean), chol: l}, nil
}

// Sample draws one vector.
func (s *MVNSampler) Sample(rng *rand.Rand) []float64 {
	n := len(s.Mean)
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	x := linalg.CopyVec(s.Mean)
	for i := 0; i < n; i++ {
		row := s.chol.Row(i)
		for k := 0; k <= i; k++ {
			x[i] += row[k] * z[k]
		}
	}
	return x
}

// EquiCorrCov builds a d-dimensional covariance matrix with unit variances
// scaled by sigma and constant pairwise correlation rho.
func EquiCorrCov(d int, sigma, rho float64) *linalg.Matrix {
	c := linalg.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i == j {
				c.Set(i, j, sigma*sigma)
			} else {
				c.Set(i, j, rho*sigma*sigma)
			}
		}
	}
	return c
}

// Shuffle permutes idx in place using rng.
func Shuffle(rng *rand.Rand, idx []int) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}

// Perm returns a random permutation of [0, n).
func Perm(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// WeightedChoice returns an index sampled proportionally to the nonnegative
// weights. It panics if all weights are zero or negative.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: WeightedChoice requires a positive weight")
	}
	r := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}

// LogNormal draws from a lognormal distribution with the given log-space
// mean and sigma.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool { return rng.Float64() < p }
