package sparsemodel

import "testing"

func TestFillOrdering(t *testing.T) {
	m := Si5H12()
	natural, err := m.FillFactor("NATURAL")
	if err != nil {
		t.Fatal(err)
	}
	metis, err := m.FillFactor("METIS_AT_PLUS_A")
	if err != nil {
		t.Fatal(err)
	}
	colamd, err := m.FillFactor("COLAMD")
	if err != nil {
		t.Fatal(err)
	}
	if !(metis < colamd && colamd < natural) {
		t.Fatalf("fill ordering wrong: metis=%v colamd=%v natural=%v", metis, colamd, natural)
	}
	if _, err := m.FillFactor("NOPE"); err == nil {
		t.Fatal("expected unknown ordering error")
	}
}

func TestSameGroupSimilarCharacter(t *testing.T) {
	si, h2o := Si5H12(), H2O()
	if si.Group != h2o.Group {
		t.Fatal("PARSEC matrices must share a group")
	}
	// The ordering preference must transfer between group members: best
	// ordering for Si5H12 is best for H2O too.
	best := func(m Matrix) string {
		name, val := "", 0.0
		for _, o := range Orderings {
			f, err := m.FillFactor(o)
			if err != nil {
				t.Fatal(err)
			}
			if name == "" || f < val {
				name, val = o, f
			}
		}
		return name
	}
	if best(si) != best(h2o) {
		t.Fatal("group members disagree on the best ordering")
	}
}

func TestFlopsAndMemoryScale(t *testing.T) {
	si, h2o := Si5H12(), H2O()
	fSi, _ := si.FactorFlops("METIS_AT_PLUS_A")
	fH, _ := h2o.FactorFlops("METIS_AT_PLUS_A")
	if fH <= fSi {
		t.Fatal("larger matrix should need more flops")
	}
	if _, err := si.FactorFlops("NOPE"); err == nil {
		t.Fatal("expected error")
	}
}
