package chase

import (
	"math/rand"
	"testing"

	"repro/internal/parser"
	"repro/internal/workload"
)

func TestCertifiedContainmentExample6(t *testing.T) {
	// Example 6: each rule of the right-linear TC is contained in the
	// doubled TC, with a verifiable derivation.
	p := workload.TransitiveClosure()
	for _, r := range workload.TransitiveClosureLinear().Rules {
		ok, cert, deriv, err := UniformlyContainsRuleCertified(p, r)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("rule %v not contained", r)
		}
		if err := VerifyCertificate(p, cert, deriv); err != nil {
			t.Fatalf("certificate rejected: %v", err)
		}
	}
	// The negative direction has no certificate.
	doubled := workload.TransitiveClosure().Rules[1]
	ok, cert, deriv, err := UniformlyContainsRuleCertified(workload.TransitiveClosureLinear(), doubled)
	if err != nil {
		t.Fatal(err)
	}
	if ok || cert != nil || deriv != nil {
		t.Fatal("negative containment produced a certificate")
	}
}

func TestCertifiedAgreesWithPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		p := workload.RandomProgram(rng, 1+rng.Intn(3))
		q := workload.RandomProgram(rng, 1+rng.Intn(3))
		if p.Validate() != nil || q.Validate() != nil {
			continue
		}
		for _, r := range q.Rules {
			plain, err := UniformlyContainsRule(p, r)
			if err != nil {
				t.Fatal(err)
			}
			ok, cert, deriv, err := UniformlyContainsRuleCertified(p, r)
			if err != nil {
				t.Fatal(err)
			}
			if ok != plain {
				t.Fatalf("certified=%v plain=%v for %v", ok, plain, r)
			}
			if ok {
				if err := VerifyCertificate(p, cert, deriv); err != nil {
					t.Fatalf("certificate invalid: %v", err)
				}
			}
		}
	}
}

func TestCertificateRejectsNegation(t *testing.T) {
	neg := parser.MustParseProgram(`P(x) :- A(x), !B(x).`)
	if _, _, _, err := UniformlyContainsRuleCertified(neg, workload.TransitiveClosure().Rules[0]); err == nil {
		t.Fatal("negation accepted")
	}
}

// TestCertificateNamesCallersVariables: the plan a Checker evaluates on may be
// a cached one prepared from a per-rule variable renaming of its program; the
// certificate's bindings name the variables of the program the caller passed,
// so it verifies against that program.
func TestCertificateNamesCallersVariables(t *testing.T) {
	if _, err := NewChecker(parser.MustParseProgram("Cert(a, c) :- CertE(a, c).\nCert(a, c) :- Cert(a, b), Cert(b, c).")); err != nil {
		t.Fatal(err)
	}
	p := parser.MustParseProgram("Cert(x, z) :- CertE(x, z).\nCert(x, z) :- Cert(x, y), Cert(y, z).")
	r := parser.MustParseProgram("Cert(u, w) :- CertE(u, v), Cert(v, t), CertE(t, w).").Rules[0]
	ok, cert, deriv, err := UniformlyContainsRuleCertified(p, r)
	if err != nil || !ok {
		t.Fatalf("contained rule: ok=%v err=%v", ok, err)
	}
	if err := VerifyCertificate(p, cert, deriv); err != nil {
		t.Fatalf("certificate does not verify against the caller's program: %v\n%s", err, deriv)
	}
}
