package engine

import (
	"bytes"

	"repro/internal/device"
	"repro/internal/ingest"
)

// IngestEvent applies a wire-decoded event without materializing Go strings
// on the steady-state path. It is the byte-slice twin of Ingest: the decoded
// fields alias the request body, so interning happens here — on the shard
// goroutine that owns this engine's symbol table — through byte-keyed twins
// of the ingest caches. A cache hit costs one map lookup per variable (the
// allocation-free m[string(b)] form); a miss materializes the strings once
// and reuses the varSig-keyed cache builders.
//
// The caller keeps ownership of ev and its slices; the engine retains
// nothing that aliases them.
func (e *Engine) IngestEvent(ev *ingest.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, v := range ev.Vars {
		e.ingestVarBytesLocked(ev.DeviceType, ev.Name, ev.Location, v.Key, v.Value)
	}
}

func (e *Engine) ingestVarBytesLocked(deviceType, friendlyName, location, name, value []byte) {
	sig := e.sigBytesLocked(deviceType, friendlyName, location, name)
	cv, ok := e.varCacheB[string(sig)]
	if !ok {
		cv = e.varCacheMissLocked(sig, deviceType, friendlyName, location, name)
	}
	switch cv.kind {
	case device.VarKindSpecial:
		e.applySpecialBytesLocked(cv, name, value)
	case device.VarKindNumber:
		// A null value decodes to empty bytes, which ParseFloat rejects —
		// the same silent skip the string path applies.
		if f, ok := ingest.ParseFloat(value); ok {
			for _, id := range cv.keyIDs {
				e.ctx.SetNumberID(id, f)
			}
			e.dirtyIDs.AddAll(cv.dirtyIDs)
		}
	case device.VarKindBool:
		b := (len(value) == 1 && value[0] == '1') || string(value) == "true"
		for _, id := range cv.keyIDs {
			e.ctx.SetBoolID(id, b)
		}
		e.dirtyIDs.AddAll(cv.dirtyIDs)
	default:
		// String vars (mode) are not observable by CADEL conditions in this
		// version; ignored.
	}
}

// sigBytesLocked assembles the combined variable signature in the reusable
// scratch buffer. 0xff separates the fields: decoded event fields are valid
// UTF-8 (the wire decoder coerces invalid sequences to U+FFFD), so the
// separator byte cannot occur inside any of them and the encoding is
// unambiguous.
func (e *Engine) sigBytesLocked(deviceType, friendlyName, location, name []byte) []byte {
	s := e.sigScratch[:0]
	s = append(s, deviceType...)
	s = append(s, 0xff)
	s = append(s, friendlyName...)
	s = append(s, 0xff)
	s = append(s, location...)
	s = append(s, 0xff)
	s = append(s, name...)
	e.sigScratch = s
	return s
}

// varCacheMissLocked materializes a first-sight signature's strings, builds
// (or reuses) the varSig-keyed cache entry, and memoizes it under the
// combined byte key. Runs once per distinct event signature.
func (e *Engine) varCacheMissLocked(sig, deviceType, friendlyName, location, name []byte) *cachedVar {
	ssig := varSig{
		deviceType:   string(deviceType),
		friendlyName: string(friendlyName),
		location:     string(location),
		name:         string(name),
	}
	cv, ok := e.varCache[ssig]
	if !ok {
		cv = e.buildVarCacheLocked(ssig)
	}
	e.varCacheB[string(sig)] = cv
	return cv
}

// applySpecialBytesLocked is the byte twin of applySpecialInternedLocked.
func (e *Engine) applySpecialBytesLocked(cv *cachedVar, name, value []byte) {
	switch {
	case cv.user != "":
		e.ctx.SetLocationID(cv.userID, e.placeSlotBytesLocked(value))
		e.dirtyIDs.AddAll(cv.dirtyIDs)
	case string(name) == "event":
		// "person|event|seq", person must be non-empty.
		i := bytes.IndexByte(value, '|')
		if i <= 0 {
			return
		}
		rest := value[i+1:]
		event := rest
		if j := bytes.IndexByte(rest, '|'); j >= 0 {
			event = rest[:j]
		}
		arrKey := value[:i+1+len(event)] // the "person|event" prefix
		ids, ok := e.arrCacheB[string(arrKey)]
		if !ok {
			ids = e.buildArrCacheLocked(string(value[:i]), string(event))
			e.arrCacheB[string(arrKey)] = ids
		}
		e.ctx.Now = e.now()
		e.ctx.RecordEventID(ids.key, ids.name)
		e.dirtyIDs.Add(ids.name)
	case string(name) == "programs":
		e.ctx.SetPrograms(device.DecodePrograms(string(value)))
		e.dirtyIDs.Add(e.programsDep)
	}
}

// placeSlotBytesLocked resolves a place name from its wire bytes; the
// memoized hit is one allocation-free map lookup.
func (e *Engine) placeSlotBytesLocked(place []byte) uint32 {
	if len(place) == 0 {
		return 0
	}
	if slot, ok := e.placeSlot[string(place)]; ok {
		return slot
	}
	return e.placeSlotLocked(string(place))
}
