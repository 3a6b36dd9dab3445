package core

import "testing"

func TestOptionsFingerprint(t *testing.T) {
	a := DefaultOptions("bonus")
	b := DefaultOptions("bonus")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical options fingerprint differently")
	}
	// Workers does not influence results and must not influence the key.
	b.Workers = 7
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Workers changed the fingerprint")
	}
	// Every result-affecting knob must move the fingerprint.
	muts := map[string]func(*Options){
		"target":     func(o *Options) { o.Target = "pay" },
		"cond attrs": func(o *Options) { o.CondAttrs = []string{"edu"} },
		"tran attrs": func(o *Options) { o.TranAttrs = []string{"pay"} },
		"c":          func(o *Options) { o.C = 2 },
		"t":          func(o *Options) { o.T = 1 },
		"kmax":       func(o *Options) { o.KMax = 2 },
		"alpha":      func(o *Options) { o.Alpha = 0.7 },
		"topk":       func(o *Options) { o.TopK = 3 },
		"weights":    func(o *Options) { o.Weights.Coverage = 2 },
		"snap":       func(o *Options) { o.SnapTolerance = 0 },
		"robust":     func(o *Options) { o.Robust = !o.Robust },
		"nonlinear":  func(o *Options) { o.Nonlinear = true },
		"strategy":   func(o *Options) { o.Strategy = DeltaKMeans },
		"norefine":   func(o *Options) { o.NoRefine = true },
	}
	for name, mut := range muts {
		o := DefaultOptions("bonus")
		mut(&o)
		if o.Fingerprint() == a.Fingerprint() {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

func TestOptionsFingerprintListEncodingUnambiguous(t *testing.T) {
	a := DefaultOptions("bonus")
	a.CondAttrs = []string{"a,b"}
	b := DefaultOptions("bonus")
	b.CondAttrs = []string{"a", "b"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error(`CondAttrs {"a,b"} and {"a","b"} collide`)
	}
	c := DefaultOptions("bonus")
	c.CondAttrs = []string{"x"}
	d := DefaultOptions("bonus")
	d.TranAttrs = []string{"x"}
	if c.Fingerprint() == d.Fingerprint() {
		t.Error("cond attr vs tran attr collide")
	}
}
