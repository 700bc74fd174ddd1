// Package fingerprint implements an application-fingerprinting operator
// plugin — the taxonomy class of the paper's Figure 1 in which management
// decisions are optimised "by predicting the behavior of user jobs, and
// correlating this to historical data" (Taxonomist [30] and related
// systems).
//
// Per compute-node unit, windows of derived performance metrics (CPI,
// FLOPS rate, miss rate, ...) are turned into feature vectors. While jobs
// with known application names run on a node, the vectors accumulate as
// labelled training data; once the configured training-set size is
// reached, a random-forest classifier is fitted and the operator starts
// publishing, per node, the index of the recognised application plus the
// classification confidence. The class-index-to-name mapping is exposed
// via Classes for the REST layer.
package fingerprint

import (
	"fmt"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/ml/features"
	"github.com/dcdb/wintermute/internal/ml/forest"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Config parameterises a fingerprint operator. The unit's first output
// receives the predicted class index; an optional second output receives
// the confidence.
type Config struct {
	core.OperatorConfig
	// TrainingSetSize is the number of labelled windows accumulated
	// before the classifier is trained (default 500).
	TrainingSetSize int `json:"trainingSetSize"`
	// WindowMs is the feature window (default: 4 computation intervals).
	WindowMs int `json:"windowMs"`
	// MinConfidence suppresses predictions below this vote fraction;
	// suppressed ticks publish class -1 (default 0.5).
	MinConfidence float64 `json:"minConfidence"`
	Trees         int     `json:"trees"`
	MaxDepth      int     `json:"maxDepth"`
	Seed          int64   `json:"seed"`
}

// Unknown is the class index published when no confident prediction is
// available.
const Unknown = -1

// Operator learns and recognises application signatures.
type Operator struct {
	*core.Base
	cfg    Config
	window time.Duration
	jobs   core.JobProvider

	mu      sync.Mutex
	model   *forest.Classifier
	trained bool
	trainX  [][]float64
	trainY  []string
	classes map[string]int
}

// New builds a fingerprint operator; it requires a job provider for
// training labels.
func New(cfg Config, qe *core.QueryEngine, env core.Env) (*Operator, error) {
	if env.Jobs == nil {
		return nil, fmt.Errorf("fingerprint: no job provider available")
	}
	if cfg.TrainingSetSize <= 0 {
		cfg.TrainingSetSize = 500
	}
	if cfg.MinConfidence <= 0 {
		cfg.MinConfidence = 0.5
	}
	// The model is shared across units: sequential unit management.
	cfg.OperatorConfig.Parallel = false
	base, err := cfg.OperatorConfig.Build("fingerprint", qe.Navigator())
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.WindowMs) * time.Millisecond
	if window <= 0 {
		window = 4 * cfg.OperatorConfig.IntervalDuration()
	}
	return &Operator{
		Base:   base,
		cfg:    cfg,
		window: window,
		jobs:   env.Jobs,
		model: forest.NewClassifier(forest.Params{
			Trees:    cfg.Trees,
			MaxDepth: cfg.MaxDepth,
			Seed:     cfg.Seed,
		}),
	}, nil
}

// Trained reports whether the classifier has been fitted.
func (o *Operator) Trained() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.trained
}

// TrainingProgress returns accumulated and required labelled windows.
func (o *Operator) TrainingProgress() (have, want int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.trainY), o.cfg.TrainingSetSize
}

// Classes returns the application names in class-index order, available
// once trained.
func (o *Operator) Classes() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.trained {
		return nil
	}
	return o.model.Classes()
}

// labelFor returns the application label of the job running on the
// unit's node, if exactly one is known.
func (o *Operator) labelFor(u *units.Unit, now time.Time) (string, bool) {
	for _, job := range o.jobs.RunningJobs(now.UnixNano()) {
		for _, node := range job.Nodes {
			if node == u.Name {
				return job.Label(), true
			}
		}
	}
	return "", false
}

// Compute implements core.Operator: during training, windows of input
// metrics labelled by the running job accumulate; after training, every
// window yields a recognised application index and confidence. The
// reading buffer is context scratch; the feature vector is freshly
// allocated on purpose — it may be retained as labelled training data.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	bu := qe.BindUnit(u)
	feat := make([]float64, 0, features.VectorSize(len(u.Inputs)))
	buf := tc.Readings
	samples := 0
	for i := range u.Inputs {
		buf = bu.Inputs[i].QueryRelative(o.window, buf[:0])
		samples += len(buf)
		feat = features.Extract(buf, feat)
	}
	tc.Readings = buf
	if samples == 0 {
		return nil, nil // sensors not warm yet
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.trained {
		label, ok := o.labelFor(u, now)
		if !ok {
			return nil, nil // unlabelled window: idle node or unknown job
		}
		o.trainX = append(o.trainX, feat)
		o.trainY = append(o.trainY, label)
		if len(o.trainY) >= o.cfg.TrainingSetSize {
			if err := o.model.Fit(o.trainX, o.trainY); err != nil {
				return nil, fmt.Errorf("fingerprint: training: %w", err)
			}
			o.trained = true
			o.trainX, o.trainY = nil, nil
		}
		return nil, nil
	}
	label, conf := o.model.Predict(feat)
	class := Unknown
	if conf >= o.cfg.MinConfidence {
		for i, name := range o.model.Classes() {
			if name == label {
				class = i
				break
			}
		}
	}
	outs := tc.Outputs[:0]
	if len(u.Outputs) >= 1 {
		outs = append(outs, core.Output{Topic: u.Outputs[0], Reading: sensor.At(float64(class), now)})
	}
	if len(u.Outputs) >= 2 {
		outs = append(outs, core.Output{Topic: u.Outputs[1], Reading: sensor.At(conf, now)})
	}
	tc.Outputs = outs
	return outs, nil
}

func init() { core.Register("fingerprint", New) }
