package core

import "fmt"

// Credential is one piece of authentication evidence, produced by a sensor
// or login mechanism. It asserts either "this is subject S" (identity
// credential) or "this person holds subject role R" (role credential) with
// the given confidence in [0,1].
//
// Role credentials realize the paper's §5.2 observation that a sensor may
// authenticate a person *into a role* with higher confidence than it can
// identify them: the Smart Floor knows Alice with 75% confidence but knows
// she is *a child* with 98% confidence.
type Credential struct {
	// Subject is the asserted identity; empty for role credentials.
	Subject SubjectID
	// Role is the asserted subject role; empty for identity credentials.
	Role RoleID
	// Confidence is the probability the assertion is correct, in [0,1].
	Confidence float64
	// Source names the mechanism that produced the evidence
	// ("smart-floor", "face-recognition", "password", ...).
	Source string
}

// Validate reports whether the credential is well-formed: exactly one of
// Subject and Role set, confidence within [0,1].
func (c Credential) Validate() error {
	if (c.Subject == "") == (c.Role == "") {
		return fmt.Errorf("%w: credential must assert exactly one of subject identity or role", ErrInvalid)
	}
	if c.Confidence < 0 || c.Confidence > 1 {
		return fmt.Errorf("%w: credential confidence %v outside [0,1]", ErrInvalid, c.Confidence)
	}
	return nil
}

// IdentityCredential builds an identity assertion.
func IdentityCredential(s SubjectID, confidence float64, source string) Credential {
	return Credential{Subject: s, Confidence: confidence, Source: source}
}

// RoleCredential builds a direct role-membership assertion.
func RoleCredential(r RoleID, confidence float64, source string) Credential {
	return Credential{Role: r, Confidence: confidence, Source: source}
}

// CredentialSet is the evidence accompanying one access request.
type CredentialSet []Credential

// Validate checks every credential in the set.
func (cs CredentialSet) Validate() error {
	for i, c := range cs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("credential %d: %w", i, err)
		}
	}
	return nil
}

// identityConfidence returns the strongest evidence that the requester is s.
func (cs CredentialSet) identityConfidence(s SubjectID) float64 {
	best := 0.0
	for _, c := range cs {
		if c.Subject == s && c.Confidence > best {
			best = c.Confidence
		}
	}
	return best
}
