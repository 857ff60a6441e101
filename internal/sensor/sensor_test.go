package sensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/event"
)

var testTime = time.Date(2000, 1, 17, 19, 30, 0, 0, time.UTC)

func TestFuse(t *testing.T) {
	tests := []struct {
		name  string
		confs []float64
		want  float64
	}{
		{"empty", nil, 0},
		{"single", []float64{0.75}, 0.75},
		{"two independent", []float64{0.9, 0.7}, 0.97},
		{"certainty dominates", []float64{0.5, 1.0}, 1},
		{"zeros ignored", []float64{0, 0.6, 0}, 0.6},
		{"clamped", []float64{1.5, -0.5}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Fuse(tt.confs); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Fuse(%v) = %v, want %v", tt.confs, got, tt.want)
			}
		})
	}
}

// TestFuseProperties: fusion is monotone in added evidence and bounded by
// [max(c_i), 1].
func TestFuseProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		confs := make([]float64, n)
		maxC := 0.0
		for i := range confs {
			confs[i] = float64(rng.Intn(101)) / 100
			if confs[i] > maxC {
				maxC = confs[i]
			}
		}
		fused := Fuse(confs)
		if fused < maxC-1e-12 || fused > 1+1e-12 {
			return false
		}
		// Monotone: adding evidence never decreases.
		more := Fuse(append(append([]float64(nil), confs...), 0.3))
		return more >= fused-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// paperFloor builds the §5.2 household: Alice, 11 years old, 94 pounds,
// only resident near that weight; child band 40–110 lb centered so a 94 lb
// reading lands well inside.
func paperFloor() *SmartFloor {
	return NewSmartFloor(
		[]WeightEntry{
			{Subject: "alice", Pounds: 94},
			{Subject: "bobby", Pounds: 60},
			{Subject: "mom", Pounds: 135},
			{Subject: "dad", Pounds: 180},
		},
		[]WeightRange{
			{Role: "child", Min: 40, Max: 148}, // center 94: dead-center match
			{Role: "adult", Min: 120, Max: 250},
		},
	)
}

func TestSmartFloorReproducesPaperNumbers(t *testing.T) {
	floor := paperFloor()
	obs := floor.Sense(94, testTime)

	var aliceConf, childConf float64
	for _, o := range obs {
		if o.Subject == "alice" {
			aliceConf = o.Confidence
		}
		if o.Role == "child" {
			childConf = o.Confidence
		}
	}
	// Paper: "the Smart Floor can identify her as Alice with 75% accuracy"
	if math.Abs(aliceConf-0.75) > 1e-9 {
		t.Fatalf("alice identity confidence = %v, want 0.75", aliceConf)
	}
	// Paper: "it may be able to authenticate her into the Child role with
	// 98% accuracy"
	if math.Abs(childConf-0.98) > 1e-9 {
		t.Fatalf("child role confidence = %v, want 0.98", childConf)
	}
	// No spurious identities for far-away weights.
	for _, o := range obs {
		if o.Subject == "mom" || o.Subject == "dad" {
			t.Fatalf("94 lb reading matched %q", o.Subject)
		}
	}
}

func TestSmartFloorAmbiguitySharesEvidence(t *testing.T) {
	floor := NewSmartFloor(
		[]WeightEntry{
			{Subject: "twin-a", Pounds: 94},
			{Subject: "twin-b", Pounds: 94},
		},
		nil,
	)
	obs := floor.Sense(94, testTime)
	if len(obs) != 2 {
		t.Fatalf("observations = %d, want 2", len(obs))
	}
	for _, o := range obs {
		if math.Abs(o.Confidence-0.375) > 1e-9 {
			t.Fatalf("ambiguous identity confidence = %v, want 0.375", o.Confidence)
		}
	}
}

func TestSmartFloorDistanceDecay(t *testing.T) {
	floor := paperFloor()
	exact := floor.Sense(94, testTime)
	off := floor.Sense(98, testTime) // 4 lb off with tolerance 8
	conf := func(obs []Observation, sub core.SubjectID) float64 {
		for _, o := range obs {
			if o.Subject == sub {
				return o.Confidence
			}
		}
		return 0
	}
	if e, o := conf(exact, "alice"), conf(off, "alice"); o >= e {
		t.Fatalf("confidence did not decay with distance: exact %v, off %v", e, o)
	}
	// Beyond tolerance: no identity at all.
	far := floor.Sense(110, testTime)
	if conf(far, "alice") != 0 {
		t.Fatal("reading beyond tolerance still identified alice")
	}
}

func TestSmartFloorBandEdges(t *testing.T) {
	floor := paperFloor()
	// A reading outside every band yields no role observation.
	obs := floor.Sense(30, testTime)
	for _, o := range obs {
		if o.Role != "" {
			t.Fatalf("30 lb reading produced role observation %v", o)
		}
	}
	// A reading in the adult band yields adult, and the overlap region
	// (120..148) yields both bands.
	obs = floor.Sense(135, testTime)
	var roles []core.RoleID
	for _, o := range obs {
		if o.Role != "" {
			roles = append(roles, o.Role)
		}
	}
	if len(roles) != 2 {
		t.Fatalf("overlap reading roles = %v, want child+adult", roles)
	}
}

func TestRecognizers(t *testing.T) {
	face := NewFaceRecognizer("alice", "mom")
	voice := NewVoiceRecognizer("alice")
	if face.Name() != "face-recognition" || voice.Name() != "voice-recognition" {
		t.Fatal("recognizer names wrong")
	}
	obs := face.Recognize("alice", testTime)
	if len(obs) != 1 || obs[0].Confidence != 0.90 {
		t.Fatalf("face obs = %v", obs)
	}
	obs = voice.Recognize("alice", testTime)
	if len(obs) != 1 || obs[0].Confidence != 0.70 {
		t.Fatalf("voice obs = %v", obs)
	}
	if got := face.Recognize("stranger", testTime); got != nil {
		t.Fatalf("stranger recognized: %v", got)
	}
}

func TestBadge(t *testing.T) {
	obs := Badge{}.Swipe("dad", testTime)
	if len(obs) != 1 || obs[0].Confidence != 1 {
		t.Fatalf("badge obs = %v", obs)
	}
}

func TestObservationValidate(t *testing.T) {
	tests := []struct {
		name string
		o    Observation
		ok   bool
	}{
		{"identity", Observation{Subject: "a", Confidence: 0.5}, true},
		{"role", Observation{Role: "r", Confidence: 0.5}, true},
		{"neither", Observation{Confidence: 0.5}, false},
		{"both", Observation{Subject: "a", Role: "r", Confidence: 0.5}, false},
		{"out of range", Observation{Subject: "a", Confidence: 1.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.o.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestObservationString(t *testing.T) {
	o := Observation{Sensor: "smart-floor", Role: "child", Confidence: 0.98}
	if got := o.String(); got != `smart-floor: role "child" @ 0.98` {
		t.Fatalf("String() = %q", got)
	}
	o = Observation{Sensor: "badge", Subject: "dad", Confidence: 1}
	if got := o.String(); got != `badge: subject "dad" @ 1.00` {
		t.Fatalf("String() = %q", got)
	}
}

func TestAuthenticatorFusesAcrossSensors(t *testing.T) {
	a := NewAuthenticator()
	// Face (0.9) and voice (0.7) both see mom: fused 0.97.
	if err := a.Record(
		Observation{Sensor: "face-recognition", Subject: "mom", Confidence: 0.9, Time: testTime},
		Observation{Sensor: "voice-recognition", Subject: "mom", Confidence: 0.7, Time: testTime},
	); err != nil {
		t.Fatal(err)
	}
	creds := a.Credentials(testTime)
	if len(creds) != 1 {
		t.Fatalf("credentials = %v", creds)
	}
	if math.Abs(creds[0].Confidence-0.97) > 1e-9 {
		t.Fatalf("fused confidence = %v, want 0.97", creds[0].Confidence)
	}
	if creds[0].Source != "fused(face-recognition+voice-recognition)" {
		t.Fatalf("source = %q", creds[0].Source)
	}
}

func TestAuthenticatorSameSensorNotIndependent(t *testing.T) {
	a := NewAuthenticator()
	// The same sensor observing twice keeps only its strongest reading.
	if err := a.Record(
		Observation{Sensor: "voice-recognition", Subject: "mom", Confidence: 0.7, Time: testTime},
		Observation{Sensor: "voice-recognition", Subject: "mom", Confidence: 0.6, Time: testTime.Add(time.Second)},
	); err != nil {
		t.Fatal(err)
	}
	creds := a.Credentials(testTime.Add(2 * time.Second))
	if len(creds) != 1 || math.Abs(creds[0].Confidence-0.7) > 1e-9 {
		t.Fatalf("credentials = %v, want single 0.70", creds)
	}
}

func TestAuthenticatorWindowExpiry(t *testing.T) {
	a := NewAuthenticator()
	a.window = time.Minute
	if err := a.Record(
		Observation{Sensor: "badge", Subject: "dad", Confidence: 1, Time: testTime},
	); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Credentials(testTime.Add(30 * time.Second))); got != 1 {
		t.Fatalf("credentials within window = %d, want 1", got)
	}
	if got := len(a.Credentials(testTime.Add(2 * time.Minute))); got != 0 {
		t.Fatalf("credentials after expiry = %d, want 0", got)
	}
	if got := a.Len(testTime.Add(2 * time.Minute)); got != 0 {
		t.Fatalf("Len after expiry = %d, want 0", got)
	}
}

func TestAuthenticatorFutureObservationsHidden(t *testing.T) {
	a := NewAuthenticator()
	if err := a.Record(
		Observation{Sensor: "badge", Subject: "dad", Confidence: 1, Time: testTime.Add(time.Hour)},
	); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Credentials(testTime)); got != 0 {
		t.Fatalf("future observation visible: %d credentials", got)
	}
}

func TestAuthenticatorRejectsInvalid(t *testing.T) {
	a := NewAuthenticator()
	err := a.Record(Observation{Confidence: 0.5})
	if !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("Record(invalid) error = %v, want ErrInvalid", err)
	}
}

func TestAuthenticatorReset(t *testing.T) {
	a := NewAuthenticator()
	if err := a.Record(Observation{Sensor: "badge", Subject: "dad", Confidence: 1, Time: testTime}); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if got := a.Len(testTime); got != 0 {
		t.Fatalf("Len after reset = %d", got)
	}
}

func TestAuthenticatorPublishesObservations(t *testing.T) {
	bus := event.NewBus()
	var published []event.Event
	bus.Subscribe(func(e event.Event) { published = append(published, e) },
		event.TypeSensorObservation)
	a := NewAuthenticator(WithAuthBus(bus))
	if err := a.Record(
		Observation{Sensor: "smart-floor", Role: "child", Confidence: 0.98, Time: testTime},
		Observation{Sensor: "smart-floor", Subject: "alice", Confidence: 0.75, Time: testTime},
	); err != nil {
		t.Fatal(err)
	}
	if len(published) != 2 {
		t.Fatalf("published %d events, want 2", len(published))
	}
	if published[0].Attrs["role"] != "child" || published[1].Attrs["subject"] != "alice" {
		t.Fatalf("event attrs = %v, %v", published[0].Attrs, published[1].Attrs)
	}
}

// TestEndToEndPartialAuthentication drives the full §5.2 pipeline: floor
// reading → authenticator → credential set → core mediation under a 90%
// threshold.
func TestEndToEndPartialAuthentication(t *testing.T) {
	floor := paperFloor()
	auth := NewAuthenticator()
	if err := auth.Record(floor.Sense(94, testTime)...); err != nil {
		t.Fatal(err)
	}
	creds := auth.Credentials(testTime)

	sys := core.NewSystem(core.WithMinConfidence(0.90))
	for _, r := range []core.Role{
		{ID: "child", Kind: core.SubjectRole},
		{ID: "adult", Kind: core.SubjectRole},
		{ID: "entertainment-devices", Kind: core.ObjectRole},
		{ID: "free-time", Kind: core.EnvironmentRole},
	} {
		if err := sys.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AssignSubjectRole("alice", "child"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObject("tv"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AssignObjectRole("tv", "entertainment-devices"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTransaction(core.SimpleTransaction("use")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Grant(core.Permission{
		Subject: "child", Object: "entertainment-devices",
		Environment: "free-time", Transaction: "use", Effect: core.Permit,
	}); err != nil {
		t.Fatal(err)
	}

	d, err := sys.Decide(core.Request{
		Subject:     "alice",
		Object:      "tv",
		Transaction: "use",
		Credentials: creds,
		Environment: []core.RoleID{"free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatalf("Alice denied despite 98%% child evidence:\n%s", d.Explain())
	}
	// The grant must have come through the role credential, not identity.
	if d.Matches[0].Confidence < 0.90 {
		t.Fatalf("match confidence = %v", d.Matches[0].Confidence)
	}
}
