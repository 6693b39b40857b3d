package gcsteering

import (
	"math/rand"
	"sync"

	"gcsteering/internal/sim"
	"gcsteering/internal/ssd"
)

// Warmup memoizes the simulation warm-up across the systems built through
// its New. Warming a member (filling it and overwriting PrefillOverwrite of
// it, GC included) is a pure function of its device configuration, the
// overwrite fraction, the array's per-member span and the member's prefill
// seed; systems of one experiment grid repeat the same few combinations
// many times. A Warmup warms each distinct combination once, keeps that
// flash image, and hands every system a deep clone of it, so a memoized
// system is byte-identical to one New builds.
//
// The zero value is ready to use, and one Warmup may serve concurrent New
// calls. It holds every image it warmed until it is dropped, so scope one
// to a batch of related systems, such as one experiment grid.
type Warmup struct {
	mu     sync.Mutex
	images map[warmKey]*warmImage
}

// warmKey is everything a member's warm-up reads, plus the rest of the
// device configuration, which a clone inherits from its image.
type warmKey struct {
	dev       ssd.Config
	overwrite float64 // Config.PrefillOverwrite (Validate rejects NaN)
	used      int     // Config.diskPages
	seed      int64   // the member's prefill seed
}

// warmImage is one memoized warm-up: the once lets the first caller warm
// it while concurrent callers of the same key wait.
type warmImage struct {
	once sync.Once
	dev  *ssd.Device // engine-less template; only cloned, never run
	err  error
}

// member builds member id on eng, warmed with the prefill stream seeded by
// seed: in place for a nil memo, otherwise as a clone of the memoized
// image.
func (w *Warmup) member(id int, eng *sim.Engine, cfg Config, seed int64) (*ssd.Device, error) {
	if w == nil {
		return warm(id, eng, cfg, seed)
	}
	img := w.image(warmKey{cfg.deviceConfig(), cfg.PrefillOverwrite, cfg.diskPages(), seed})
	img.once.Do(func() { img.dev, img.err = warm(id, nil, cfg, seed) })
	if img.err != nil {
		return nil, img.err
	}
	return img.dev.Clone(id, eng), nil
}

// image returns the memo slot for k, creating it on first use.
func (w *Warmup) image(k warmKey) *warmImage {
	w.mu.Lock()
	defer w.mu.Unlock()
	img := w.images[k]
	if img == nil {
		if w.images == nil {
			w.images = make(map[warmKey]*warmImage)
		}
		img = &warmImage{}
		w.images[k] = img
	}
	return img
}

// warm builds one member and runs the paper's warm-up on it. Prefill
// consumes no simulated time, so eng may be nil for a template.
func warm(id int, eng *sim.Engine, cfg Config, seed int64) (*ssd.Device, error) {
	d, err := ssd.New(id, eng, cfg.deviceConfig())
	if err != nil {
		return nil, err
	}
	//lint:allow nodeterm per-device prefill stream seeded from the root stream, stable in loop order
	d.Prefill(rand.New(rand.NewSource(seed)), cfg.PrefillOverwrite, cfg.diskPages())
	return d, nil
}
