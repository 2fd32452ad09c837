// Package maskfix holds a fourth GRIN wrapper in the making: a type that
// masks its own method set instead of going through grin.Tap.
package maskfix

import "repro/internal/grin"

// Wrapper forwards traits by hand and masks them itself.
type Wrapper struct{ inner grin.Graph }

func (w *Wrapper) HasTrait(t grin.Trait) bool { return grin.Has(w.inner, t) } // want "type Wrapper declares HasTrait\\(grin.Trait\\).*interpose through grin.Tap"

// Catalog has a HasTrait of its own meaning; only grin.TraitMasker's
// signature marks a wrapper.
type Catalog struct{}

func (Catalog) HasTrait(name string) bool { return name != "" }

// Hook is how interposition is meant to look.
type Hook struct{}

func (Hook) Before(grin.Site) (int64, bool) { return 0, false }
func (Hook) After(grin.Site, int64, int)    {}
