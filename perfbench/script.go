package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/internal/device"
)

// submission is one CADEL command sent through POST /fleet/homes/{h}/rules,
// with the answer the script expects.
type submission struct {
	Owner  string
	Source string
	// Status is the expected HTTP status: 201, or the 4xx the server must
	// answer (409 duplicate word, 422 inconsistent rule).
	Status int
	// Word is the word a "Let's call…" definition must report.
	Word string
	// RuleID is the id a rule submission must be assigned ("<owner>-<n>").
	RuleID string
	// Conflicts is the exact set of existing rule ids the submission must
	// be reported to conflict with.
	Conflicts []string
}

// priority is one contextual priority order (POST …/priority).
type priority struct {
	Device  string
	Users   []string
	Context string
}

// event is one device event. Requests carry it as the fleet event JSON.
type event struct {
	DeviceType string
	Name       string
	Location   string
	Vars       [][2]string // ordered, so the body bytes are deterministic
}

// body renders the event as the JSON the server decodes.
func (e event) body(sync bool) []byte {
	b := make([]byte, 0, 192)
	b = append(b, `{"deviceType":`...)
	b = strconv.AppendQuote(b, e.DeviceType)
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, e.Name)
	if e.Location != "" {
		b = append(b, `,"location":`...)
		b = strconv.AppendQuote(b, e.Location)
	}
	b = append(b, `,"vars":{`...)
	for i, kv := range e.Vars {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, kv[0])
		b = append(b, ':')
		b = strconv.AppendQuote(b, kv[1])
	}
	b = append(b, '}')
	if sync {
		b = append(b, `,"sync":true`...)
	}
	return append(b, '}')
}

// varsMap returns the event's variables as the map the hub API takes.
func (e event) varsMap() map[string]string {
	m := make(map[string]string, len(e.Vars))
	for _, kv := range e.Vars {
		m[kv[0]] = kv[1]
	}
	return m
}

func climate(location string, temp, humid int) event {
	return event{DeviceType: device.TypeThermometer, Name: "thermometer", Location: location,
		Vars: [][2]string{{"temperature", strconv.Itoa(temp)}, {"humidity", strconv.Itoa(humid)}}}
}

func presence(user, room string) event {
	return event{DeviceType: device.TypePresenceSensor, Name: "presence sensor", Location: "home",
		Vars: [][2]string{{"presence-" + user, room}}}
}

func arrival(user, ev string, seq int) event {
	return event{DeviceType: device.TypePresenceSensor, Name: "presence sensor", Location: "home",
		Vars: [][2]string{{"event", user + "|" + ev + "|" + strconv.Itoa(seq)}}}
}

// homeRNG derives a home's private generator from the run seed, so one home's
// script does not depend on how many others exist or in which order they run.
func homeRNG(seed uint64, stream string, home int) *rand.Rand {
	f := fnv.New64a()
	f.Write([]byte(stream)) // a hash.Hash never fails to write
	return rand.New(rand.NewPCG(seed, f.Sum64()^uint64(home)*0x9E3779B97F4A7C15))
}

// ---- fleet_stream ----

// fleetRule is the paper's Example Rule 1, the one rule of every rule home.
const fleetRule = "If temperature is higher than 28 degrees, turn on the air conditioner."

// fleetHomeID names fleet_stream home i; the seed salts the names so two
// seeds address different hash shards.
func fleetHomeID(seed uint64, i int) string {
	return fmt.Sprintf("fs%x-%05d", seed&0xfff, i)
}

// fleetTemp is the temperature of a home's k-th event: successive events to
// one home alternate across the rule's 28-degree threshold.
func fleetTemp(seed uint64, home, k int) int {
	base := int((seed + uint64(home)) % 3)
	if k%2 == 0 {
		return 30 + base // above the threshold
	}
	return 20 + base
}

// ---- home_actuation ----

// actuationUsers are the Fig. 1 household plus a fourth resident.
var actuationUsers = []string{"tom", "alan", "emily", "ken"}

var actuationRooms = []string{"living room", "study", "kitchen", "bedroom"}

// actuationHome is the set-up script of one home_actuation home.
type actuationHome struct {
	ID    string
	Words []submission
	Rules []submission
}

// actuationScript builds home i: the Sect. 3.1 household's comfort words and
// about 32 rules of Example Rule 1–3 shapes, owners contending for the air
// conditioner, tv, stereo and lights under contextual priority orders.
func actuationScript(seed uint64, i int) actuationHome {
	r := homeRNG(seed, "actuation", i)
	h := actuationHome{ID: fmt.Sprintf("ha%x-%03d", seed&0xfff, i)}
	j := func(n int) int { return r.IntN(n) }
	h.Words = []submission{
		{Owner: "tom", Status: 201, Word: "hot and stuffy", Source: fmt.Sprintf(
			"Let's call the condition that temperature is higher than %d degrees and humidity is higher than %d percent hot and stuffy", 25+j(3), 62+j(6))},
		{Owner: "emily", Status: 201, Word: "sticky", Source: fmt.Sprintf(
			"Let's call the condition that temperature is higher than %d degrees and humidity is higher than %d percent sticky", 28+j(3), 72+j(6))},
		{Owner: "tom", Status: 201, Word: "half-lighting", Source: "Let's call the configuration that 50 percent of brightness setting half-lighting"},
	}
	add := func(owner, src string) { h.Rules = append(h.Rules, submission{Owner: owner, Source: src, Status: 201}) }
	// Fig. 1: the living-room appliances.
	add("tom", fmt.Sprintf("If i am in the living room and hot and stuffy, turn on the air conditioner at the living room with %d degrees of temperature setting and 60 percent of humidity setting.", 24+j(3)))
	add("emily", fmt.Sprintf("If i am in the living room and sticky, turn on the air conditioner at the living room with %d degrees of temperature setting and 65 percent of humidity setting.", 26+j(3)))
	add("alan", fmt.Sprintf("If i am in the living room and temperature is higher than %d degrees, turn on the air conditioner at the living room with 24 degrees of temperature setting.", 25+j(3)))
	add("tom", "When i am in the living room, turn on the floor lamp with half-lighting.")
	add("tom", "When i am in the living room, play the stereo with jazz of mode setting and 40 percent of volume setting.")
	add("emily", "When i am in the living room, play the stereo with movie of mode setting.")
	add("emily", "When i am in the living room, turn on the fluorescent light.")
	// Example Rule 2 shape: nobody present.
	add("tom", "If nobody is at home, turn off the fluorescent light.")
	add("ken", "Turn off the stereo when nobody is at the living room.")
	// Example Rule 3 shape: arrivals.
	add("alan", "If alan got home from work, turn on the tv with 1 of channel setting.")
	add("emily", "If emily got home from shopping, turn on the tv with 3 of channel setting.")
	// Example Rule 1 shape: thresholds, per room and per owner, so several
	// owners contend for each room's fan and air conditioner.
	for k, room := range actuationRooms {
		owner := actuationUsers[(k+i)%len(actuationUsers)]
		other := actuationUsers[(k+i+1)%len(actuationUsers)]
		add(owner, fmt.Sprintf("If temperature is higher than %d degrees, turn on the fan at the %s.", 26+j(4), room))
		add(other, fmt.Sprintf("If temperature is lower than %d degrees, turn off the fan at the %s.", 21+j(3), room))
		add(other, fmt.Sprintf("If humidity is higher than %d percent, turn on the fan at the %s.", 70+j(10), room))
		add(owner, fmt.Sprintf("If i am in the %s and temperature is lower than %d degrees, turn on the heater at the %s.", room, 18+j(3), room))
		add(other, fmt.Sprintf("If someone is in the %s, turn on the light at the %s.", room, room))
	}
	add("ken", fmt.Sprintf("If temperature is higher than %d degrees, turn on the air conditioner at the study.", 27+j(3)))
	return h
}

// actuationPriorities are the contextual orders of Sect. 3.1 plus per-room
// fan orders; they are the same for every home.
var actuationPriorities = []priority{
	{Device: "tv", Users: []string{"alan", "tom", "emily", "ken"}, Context: "alan got home from work"},
	{Device: "tv", Users: []string{"emily", "alan", "tom", "ken"}, Context: "emily got home from shopping"},
	{Device: "stereo", Users: []string{"emily", "tom", "alan", "ken"}, Context: "emily got home from shopping"},
	{Device: "stereo", Users: []string{"tom", "emily", "alan", "ken"}},
	{Device: "air conditioner", Users: []string{"alan", "tom", "emily", "ken"}, Context: "alan got home from work"},
	{Device: "air conditioner", Users: []string{"emily", "alan", "tom", "ken"}, Context: "emily got home from shopping"},
	{Device: "air conditioner", Users: []string{"tom", "emily", "alan", "ken"}},
	{Device: "fan", Users: []string{"ken", "alan", "tom", "emily"}},
}

// actuationEvents is one home's endless event stream: climate readings that
// wander across the comfort thresholds, residents moving between rooms and
// leaving, and the two arrivals whose contexts re-rank the priority orders.
type actuationEvents struct {
	r       *rand.Rand
	temp    [2]int
	humid   [2]int
	arrived int
}

func newActuationEvents(seed uint64, i int) *actuationEvents {
	return &actuationEvents{r: homeRNG(seed, "actuation-events", i), temp: [2]int{24, 24}, humid: [2]int{60, 60}}
}

func (a *actuationEvents) next() event {
	r := a.r
	switch n := r.IntN(100); {
	case n < 55:
		k := r.IntN(2)
		a.temp[k] = clamp(a.temp[k]+r.IntN(7)-3, 16, 34)
		a.humid[k] = clamp(a.humid[k]+r.IntN(11)-5, 40, 90)
		return climate([]string{"living room", "study"}[k], a.temp[k], a.humid[k])
	case n < 95:
		room := ""
		if k := r.IntN(len(actuationRooms) + 1); k < len(actuationRooms) {
			room = actuationRooms[k]
		}
		return presence(actuationUsers[r.IntN(len(actuationUsers))], room)
	default:
		a.arrived++
		if r.IntN(2) == 0 {
			return arrival("alan", "home-from-work", a.arrived)
		}
		return arrival("emily", "home-from-shopping", a.arrived)
	}
}

func clamp(v, lo, hi int) int {
	return min(max(v, lo), hi)
}

// ---- rule_authoring ----

// authoringDevices are the devices authored rules target. Eight devices over
// ~200 rules give each new rule a same-device candidate set of ~25.
var authoringDevices = []string{"fan", "heater", "humidifier", "dehumidifier", "tv", "stereo", "floor lamp", "kettle"}

// authoredRule is the script's model of one live rule: a temperature
// interval (lo, hi) with lo even and hi odd, so two intervals either overlap
// by at least one degree or are separated — never just touching.
type authoredRule struct {
	ID     string
	Device int
	On     bool
	Lo, Hi int
}

func (a authoredRule) overlaps(b authoredRule) bool {
	return max(a.Lo, b.Lo) < min(a.Hi, b.Hi)
}

// authoringHome is the script model of one rule_authoring home: its live
// rules and words, and the generator of its next submissions.
type authoringHome struct {
	ID    string
	r     *rand.Rand
	seq   int // rule ids handed out so far (the server's per-home counter)
	rules []authoredRule
	words []submission // "Let's call…" definitions made in the phase
}

// authoringTarget is the rule count a home grows to during set-up and
// hovers around during the measured phase.
const authoringTarget = 200

func newAuthoringHome(seed uint64, i int) *authoringHome {
	return &authoringHome{ID: fmt.Sprintf("ra%x-%02d", seed&0xfff, i), r: homeRNG(seed, "authoring", i)}
}

// authoringSetupWords are defined in every home before any rule.
var authoringSetupWords = []submission{
	{Owner: "tom", Status: 201, Word: "hot and stuffy", Source: "Let's call the condition that temperature is higher than 26 degrees and humidity is higher than 65 percent hot and stuffy"},
	{Owner: "emily", Status: 201, Word: "sticky", Source: "Let's call the condition that temperature is higher than 29 degrees and humidity is higher than 75 percent sticky"},
}

// wordName spells word k of a home as a pronounceable made-up word, so it
// can never collide with the base vocabulary.
func wordName(k int) string {
	syl := []string{"ka", "lo", "mi", "nu", "ra", "se", "ti", "vo"}
	var b strings.Builder
	b.WriteString("zu")
	for i := 0; i < 4; i++ {
		b.WriteString(syl[k%8])
		k /= 8
	}
	return b.String()
}

// next returns the home's next submission and applies its expected effect
// to the model. grow selects set-up mode (only new rules, no deletions).
// A deletion is returned as a submission with an empty Source and the id in
// RuleID.
func (h *authoringHome) next(grow bool) submission {
	r := h.r
	owner := actuationUsers[r.IntN(len(actuationUsers))]
	if !grow {
		switch n := r.IntN(100); {
		case n < 45 && len(h.rules) > 0:
			// Delete a random live rule; the store journals the removal.
			k := r.IntN(len(h.rules))
			id := h.rules[k].ID
			h.rules = append(h.rules[:k], h.rules[k+1:]...)
			return submission{RuleID: id, Status: 204}
		case n < 49:
			name := wordName(len(h.words))
			sub := submission{Owner: owner, Status: 201, Word: name, Source: fmt.Sprintf(
				"Let's call the condition that humidity is higher than %d percent %s", 50+r.IntN(40), name)}
			h.words = append(h.words, sub)
			return sub
		case n < 51 && len(h.words) > 0:
			name := h.words[r.IntN(len(h.words))].Word
			return submission{Owner: owner, Status: 409, Source: fmt.Sprintf(
				"Let's call the condition that humidity is higher than %d percent %s", 50+r.IntN(40), name)}
		case n < 53:
			// An inconsistent rule is refused, but the server has already
			// drawn its id from the home's sequence.
			h.seq++
			lo := 24 + 2*r.IntN(4)
			return submission{Owner: owner, Status: 422, Source: fmt.Sprintf(
				"If temperature is higher than %d degrees and temperature is lower than %d degrees, turn on the %s.",
				lo, lo-5, authoringDevices[r.IntN(len(authoringDevices))])}
		}
	}
	nr := authoredRule{Device: r.IntN(len(authoringDevices)), On: r.IntN(2) == 0}
	nr.Lo = 10 + 2*r.IntN(11)       // 10..30, even
	nr.Hi = nr.Lo + 3 + 2*r.IntN(4) // odd, 3..9 above
	h.seq++
	nr.ID = fmt.Sprintf("%s-%d", owner, h.seq)
	verb := "turn off"
	if nr.On {
		verb = "turn on"
	}
	cond := fmt.Sprintf("temperature is higher than %d degrees and temperature is lower than %d degrees", nr.Lo, nr.Hi)
	switch {
	case len(h.words) > 0 && r.IntN(4) == 0:
		cond += " and " + h.words[r.IntN(len(h.words))].Word
	case r.IntN(6) == 0:
		cond += " and humidity is higher than 50 percent"
	}
	sub := submission{Owner: owner, Status: 201, RuleID: nr.ID,
		Source: fmt.Sprintf("If %s, %s the %s.", cond, verb, authoringDevices[nr.Device])}
	for _, old := range h.rules {
		if old.Device == nr.Device && old.On != nr.On && old.overlaps(nr) {
			sub.Conflicts = append(sub.Conflicts, old.ID)
		}
	}
	h.rules = append(h.rules, nr)
	return sub
}
