// Package regressor implements the random-forest regression operator
// plugin of the paper's case study 1 (§VI-B): online prediction of a
// sensor's next-interval value from statistical features of recent
// readings.
//
// At each computation interval, "for each input sensor of a certain unit a
// series of statistical features (e.g., mean or standard deviation) are
// computed from its recent readings. These features are then combined to
// form a feature vector, which is fed into the random forest model to
// perform regression and output a sensor prediction" of the next interval.
// Training is automatic: feature vectors accumulate in memory together
// with the responses of the target sensor until the configured training
// set size is reached, then the shared model is fitted once and used for
// all of the operator's units. The production plugin wraps OpenCV's random
// forest; this one uses internal/ml/forest.
package regressor

import (
	"fmt"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/ml/features"
	"github.com/dcdb/wintermute/internal/ml/forest"
	"github.com/dcdb/wintermute/internal/ml/stats"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Config parameterises a regressor operator.
type Config struct {
	core.OperatorConfig
	// Target is the short name of the input sensor to predict (e.g.
	// "power"); it must appear among the unit inputs.
	Target string `json:"target"`
	// TrainingSetSize is the number of (features, response) pairs
	// accumulated before the model is trained (paper: 30k).
	TrainingSetSize int `json:"trainingSetSize"`
	// WindowMs is the feature-extraction window in milliseconds
	// (default: 4 computation intervals).
	WindowMs int `json:"windowMs"`
	// Trees and MaxDepth configure the forest (defaults 32 and 12).
	Trees    int   `json:"trees"`
	MaxDepth int   `json:"maxDepth"`
	Seed     int64 `json:"seed"`
	// ErrorSensor optionally names an absolute topic receiving the
	// operator-level average relative error over all units each interval —
	// the operator-level output facility of paper §V-C2 ("store the
	// average error of a model applied to a set of units").
	ErrorSensor string `json:"errorSensor"`
}

// unitState is the per-unit prediction bookkeeping.
type unitState struct {
	lastFeatures []float64
	lastPred     float64
	hasPred      bool
}

// Operator performs online random-forest regression. The model is shared
// by all units (paper §VI-B); unit computation is therefore sequential.
type Operator struct {
	*core.Base
	cfg    Config
	window time.Duration

	mu      sync.Mutex
	model   *forest.Forest
	trained bool
	trainX  [][]float64
	trainY  []float64
	state   map[sensor.Topic]*unitState
	errs    stats.Welford // relative error of realised predictions
}

// New builds a regressor operator from a parsed config.
func New(cfg Config, qe *core.QueryEngine) (*Operator, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("regressor: missing target sensor name")
	}
	if cfg.TrainingSetSize <= 0 {
		cfg.TrainingSetSize = 30000
	}
	// The model is shared across units: force sequential unit management
	// to avoid racing on the training set (paper §IV-c).
	cfg.OperatorConfig.Parallel = false
	base, err := cfg.OperatorConfig.Build("regressor", qe.Navigator())
	if err != nil {
		return nil, err
	}
	for _, u := range base.Units() {
		if _, err := targetOf(u, cfg.Target); err != nil {
			return nil, err
		}
	}
	window := time.Duration(cfg.WindowMs) * time.Millisecond
	if window <= 0 {
		window = 4 * cfg.OperatorConfig.IntervalDuration()
	}
	return &Operator{
		Base:   base,
		cfg:    cfg,
		window: window,
		model: forest.New(forest.Params{
			Trees:    cfg.Trees,
			MaxDepth: cfg.MaxDepth,
			Seed:     cfg.Seed,
		}),
		state: make(map[sensor.Topic]*unitState),
	}, nil
}

func targetOf(u *units.Unit, name string) (sensor.Topic, error) {
	for _, in := range u.Inputs {
		if in.Name() == name {
			return in, nil
		}
	}
	return "", fmt.Errorf("regressor: unit %s has no input named %q", u.Name, name)
}

// Trained reports whether the shared model has been fitted.
func (o *Operator) Trained() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.trained
}

// TrainingProgress returns accumulated and required training samples.
func (o *Operator) TrainingProgress() (have, want int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.trainY), o.cfg.TrainingSetSize
}

// AvgRelError returns the mean relative error over all realised
// predictions so far — the paper's headline metric (6.2 % at 250 ms).
func (o *Operator) AvgRelError() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.errs.Mean()
}

// Compute implements core.Operator. The unit's first output receives the
// prediction of the target's next-interval value; a second output, when
// configured, receives the relative error of the previous prediction as it
// is realised. The reading buffer comes from the tick context; the
// feature vector is freshly allocated on purpose — it outlives the
// computation as training data or as the unit's lastFeatures state.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	bu := qe.BindUnit(u)
	target, found := bu.InputNamed(o.cfg.Target)
	if !found {
		return nil, fmt.Errorf("regressor: unit %s has no input named %q", u.Name, o.cfg.Target)
	}
	cur, ok := target.Latest()
	if !ok {
		return nil, nil // no data yet
	}
	// Feature vector: window statistics of every input sensor.
	feat := make([]float64, 0, features.VectorSize(len(u.Inputs)))
	buf := tc.Readings
	for i := range u.Inputs {
		buf = bu.Inputs[i].QueryRelative(o.window, buf[:0])
		feat = features.Extract(buf, feat)
	}
	tc.Readings = buf

	o.mu.Lock()
	defer o.mu.Unlock()
	st := o.state[u.Name]
	if st == nil {
		st = &unitState{}
		o.state[u.Name] = st
	}
	outs := tc.Outputs[:0]
	defer func() { tc.Outputs = outs }()
	// The previous tick's features predicted the current value: realise
	// the training pair and the prediction error.
	if st.lastFeatures != nil {
		if !o.trained {
			o.trainX = append(o.trainX, st.lastFeatures)
			o.trainY = append(o.trainY, cur.Value)
			if len(o.trainY) >= o.cfg.TrainingSetSize {
				if err := o.model.Fit(o.trainX, o.trainY); err != nil {
					return nil, fmt.Errorf("regressor: training: %w", err)
				}
				o.trained = true
				o.trainX, o.trainY = nil, nil // release training memory
			}
		}
		if st.hasPred {
			rel := stats.RelativeError(st.lastPred, cur.Value)
			o.errs.Add(rel)
			if len(u.Outputs) >= 2 {
				outs = append(outs, core.Output{Topic: u.Outputs[1], Reading: sensor.At(rel, now)})
			}
		}
	}
	st.lastFeatures = feat
	st.hasPred = false
	if o.trained && len(u.Outputs) >= 1 {
		pred := o.model.Predict(feat)
		if pred == pred { // not NaN
			st.lastPred = pred
			st.hasPred = true
			outs = append(outs, core.Output{Topic: u.Outputs[0], Reading: sensor.At(pred, now)})
		}
	}
	// Operator-level output: published once per tick, alongside the
	// first unit, so it appears exactly once per interval.
	if o.cfg.ErrorSensor != "" && o.errs.N() > 0 && len(o.Units()) > 0 && u.Name == o.Units()[0].Name {
		outs = append(outs, core.Output{
			Topic:   sensor.Clean(o.cfg.ErrorSensor),
			Reading: sensor.At(o.errs.Mean(), now),
		})
	}
	return outs, nil
}

func init() {
	core.Register("regressor", func(cfg Config, qe *core.QueryEngine, _ core.Env) (*Operator, error) { return New(cfg, qe) })
}
