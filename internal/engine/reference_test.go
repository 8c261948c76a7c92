package engine

import (
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/registry"
)

// reference is the naive evaluator every equivalence suite checks the engine
// against: the paper's rule execution module with no caching at all. It
// keeps a plain string-keyed context (core.NewContext) and maps each device
// variable onto its context keys by name on every event. Every pass walks
// every registered rule: duration holds through core.WalkCond, readiness
// through the unbound Rule.Ready, and one conflict.Table.Arbitrate call per
// device that has a ready rule. It shares only the rule database, the
// priority table and the clock with the engine, and never reads a symbol
// id, so every incremental, interned or cached shortcut the engine takes
// has to reproduce its fired log and owner map exactly.
type reference struct {
	ctx        *core.Context
	db         *registry.DB
	priorities *conflict.Table
	now        func() time.Time
	dispatch   Dispatcher
	owners     map[string]string // device key → owning rule ID
	log        []Fired
}

func newReference(db *registry.DB, priorities *conflict.Table, now func() time.Time, dispatch Dispatcher, eventTTL time.Duration) *reference {
	ctx := core.NewContext(now())
	ctx.EventTTL = eventTTL
	return &reference{
		ctx:        ctx,
		db:         db,
		priorities: priorities,
		now:        now,
		dispatch:   dispatch,
		owners:     make(map[string]string),
	}
}

// HandleDeviceEvent writes an event's variables into the context and runs a
// pass, like Engine.HandleDeviceEvent.
func (r *reference) HandleDeviceEvent(deviceType, friendlyName, location string, vars map[string]string) {
	r.Ingest(deviceType, friendlyName, location, vars)
	r.Tick()
}

// Ingest writes an event's variables into the context without running a
// pass, like Engine.Ingest.
func (r *reference) Ingest(deviceType, friendlyName, location string, vars map[string]string) {
	for name, value := range vars {
		switch device.KindOfVar(name) {
		case device.VarKindSpecial:
			r.applySpecial(name, value)
		case device.VarKindNumber:
			if f, err := strconv.ParseFloat(value, 64); err == nil {
				for _, key := range device.ContextKeys(deviceType, friendlyName, location, name) {
					r.ctx.SetNumber(key, f)
				}
			}
		case device.VarKindBool:
			b := value == "1" || value == "true"
			for _, key := range device.ContextKeys(deviceType, friendlyName, location, name) {
				r.ctx.SetBool(key, b)
			}
		}
	}
}

func (r *reference) applySpecial(name, value string) {
	switch {
	case strings.HasPrefix(name, "presence-"):
		// A bare "presence-" names no user; recording it would count a
		// phantom "" user in the presence quantifiers.
		if user := strings.TrimPrefix(name, "presence-"); user != "" {
			r.ctx.SetLocation(user, value)
		}
	case name == "event":
		// "person|event|seq"
		parts := strings.SplitN(value, "|", 3)
		if len(parts) >= 2 && parts[0] != "" {
			r.ctx.Now = r.now()
			r.ctx.RecordEvent(parts[0], parts[1])
		}
	case name == "programs":
		r.ctx.SetPrograms(device.DecodePrograms(value))
	}
}

// SetUsers registers the known users and runs a pass.
func (r *reference) SetUsers(users []string) {
	r.ctx.SetUsers(users)
	r.Tick()
}

// SetFavorites registers a user's favourite keywords and runs a pass.
func (r *reference) SetFavorites(user string, keywords []string) {
	r.ctx.SetFavorites(user, keywords)
	r.Tick()
}

// Tick runs one full pass at the current time: rebuild every device's
// ready-set from scratch, re-arbitrate every device in sorted key order, and
// dispatch each device whose winner changed.
func (r *reference) Tick() {
	r.ctx.Now = r.now()
	rules := r.db.All()
	for _, rule := range rules {
		core.WalkCond(rule.Cond, func(c core.Condition) {
			d, ok := c.(*core.Duration)
			if !ok {
				return
			}
			if d.Inner.Eval(r.ctx) {
				r.ctx.MarkHeld(d.Key)
			} else {
				r.ctx.ClearHeld(d.Key)
			}
		})
	}

	ready := make(map[string][]*core.Rule)
	refs := make(map[string]core.DeviceRef)
	for _, rule := range rules {
		if rule.Ready(r.ctx) {
			key := rule.Device.Key()
			ready[key] = append(ready[key], rule)
			refs[key] = rule.Device
		}
	}

	var fired []Fired
	for _, key := range slices.Sorted(maps.Keys(ready)) {
		ranked := r.priorities.Arbitrate(refs[key], r.ctx, ready[key])
		if r.owners[key] == ranked[0].ID {
			continue // already in effect
		}
		r.owners[key] = ranked[0].ID
		fired = append(fired, Fired{Time: r.ctx.Now, Rule: ranked[0], Suppressed: ranked[1:]})
	}
	// A device whose owning rule lapsed loses its owner and keeps its last
	// state (the paper defines no un-do semantics).
	for key := range r.owners {
		if _, still := ready[key]; !still {
			delete(r.owners, key)
		}
	}
	if r.dispatch != nil {
		for i := range fired {
			fired[i].Err = r.dispatch(fired[i].Rule.Device, fired[i].Rule.Action)
		}
	}
	r.log = append(r.log, fired...)
}

// Log returns the fired-action log.
func (r *reference) Log() []Fired { return slices.Clone(r.log) }

// Owners returns a copy of the device → owning-rule-ID map.
func (r *reference) Owners() map[string]string { return maps.Clone(r.owners) }

// evaluator is what the equivalence suites drive: the stimuli and the
// observations the engine and the reference share.
type evaluator interface {
	HandleDeviceEvent(deviceType, friendlyName, location string, vars map[string]string)
	Tick()
	SetUsers(users []string)
	SetFavorites(user string, keywords []string)
	Log() []Fired
	Owners() map[string]string
}

var (
	_ evaluator = (*Engine)(nil)
	_ evaluator = (*reference)(nil)
)
