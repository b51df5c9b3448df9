package chase

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/explain"
)

// UniformlyContainsRuleCertified decides r ⊑ᵘ p and, on success, returns a
// machine-checkable derivation tree proving the frozen head from the
// frozen body — a certificate a skeptical caller can re-verify with
// explain.Verify without trusting the chase. Verdict and certificate come
// from one run: the goal-directed evaluation of Corollary 2's test, whose
// partial database the proof is read back from. On a negative answer the
// certificate is nil and the frozen body itself is the counterexample
// (see Certificate and TestChaseNoHasCanonicalWitness). Negation on either
// side is refused with ErrNegation.
func UniformlyContainsRuleCertified(p *ast.Program, r ast.Rule) (bool, *Certificate, *explain.Derivation, error) {
	if p.HasNegation() || r.HasNegation() {
		return false, nil, nil, ErrNegation
	}
	c, err := NewChecker(p)
	if err != nil {
		return false, nil, nil, err
	}
	head, body := FreezeRule(r)
	out, reached, _, err := c.prep.Run(context.Background(), body, &head, 0)
	if err != nil || !reached {
		return false, nil, nil, err
	}
	deriv, _ := explain.Over(p, c.prep, body, out).Explain(head)
	cert := &Certificate{Rule: r.Clone(), Head: head, Body: body}
	return true, cert, deriv, nil
}

// VerifyCertificate re-checks a certificate independently: the derivation
// must be a valid proof of the certificate's head over its body under p.
func VerifyCertificate(p *ast.Program, cert *Certificate, deriv *explain.Derivation) error {
	if !deriv.Fact.Equal(cert.Head) {
		return fmt.Errorf("chase: certificate proves %v, want %v", deriv.Fact, cert.Head)
	}
	return explain.Verify(p, cert.Body, deriv)
}
