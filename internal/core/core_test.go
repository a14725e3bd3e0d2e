package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/validate"
)

func TestUsageCheck(t *testing.T) {
	ok := UsageCheck{true, true, true, true}
	if !ok.Suitable() {
		t.Fatal("all-yes should be suitable")
	}
	bad := UsageCheck{NoGuaranteeNeeded: false, DataAvailable: true, AddsValue: true, NoExtraBurden: true}
	if bad.Suitable() {
		t.Fatal("guarantee-demanding formulation must be unsuitable")
	}
	if !strings.Contains(bad.String(), "NO") {
		t.Fatalf("render: %s", bad.String())
	}
}

func TestFiveRegressorsAllFitFriedman(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := dataset.Friedman1(rng, 150, 8, 0.5)
	test := dataset.Friedman1(rng, 150, 8, 0.5)
	for _, nr := range FiveRegressors() {
		m, err := nr.Fit(train)
		if err != nil {
			t.Fatalf("%s: %v", nr.Name, err)
		}
		r2 := validate.R2(m.PredictAll(test), test.Y)
		if r2 < 0.2 {
			t.Fatalf("%s: R2=%g too low", nr.Name, r2)
		}
	}
}

func TestStandardClassifiersAllFit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := dataset.TwoGaussians(rng, 60, 3, 4, 1)
	tr, te := d.StratifiedSplit(rng, 0.7)
	for name, fit := range StandardClassifiers(rng) {
		m, err := fit(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		acc := validate.Accuracy(m.PredictAll(te), te.Y)
		if acc < 0.85 {
			t.Fatalf("%s: accuracy %g", name, acc)
		}
	}
}
