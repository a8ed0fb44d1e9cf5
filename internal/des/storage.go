//go:build go1.23

package des

import (
	"runtime"
	"sync"
)

// storage is the memory an Env's processes and events live in: the Proc
// slabs, the finished-Proc free list and the queue's node chunks and
// arrays, plus what the layer above keeps with them (Env.Keep). Shutdown
// hands it to storagePool and NewEnv adopts it, so the trials of a
// campaign run on the storage earlier trials left instead of minting
// their own.
type storage struct {
	slabs [][]Proc
	procs []*Proc
	q     eventQueue
	kept  Keeper
}

// A Keeper is the records of the layer above that an Env's storage
// carries to the Envs that adopt it, such as the workload's session
// records. Shutdown calls Reset before it hands the storage on: Reset
// drops every pointer the records hold into the Env's trial, so a kept
// set pins nothing of it.
type Keeper interface{ Reset() }

// Keep makes k the value e's storage carries on from Shutdown (see
// Keeper); it replaces the one e adopted, if any.
func (e *Env) Keep(k Keeper) { e.kept = k }

// Kept returns the value e's storage carries: the one set with Keep, or
// else the one adopted with the storage of an Env shut down earlier, or
// nil.
func (e *Env) Kept() Keeper { return e.kept }

// storagePool holds the storage of shut-down Envs for the next NewEnv: at
// most GOMAXPROCS sets, one per trial a campaign runs at once.
var storagePool struct {
	sync.Mutex
	sets []storage
}

// DropStorage empties the storage pool, so the memory of the Envs shut
// down so far can be collected, and reports how many sets it dropped. A
// campaign calls it when it returns: its trials reuse each other's
// storage, and nothing they used outlives it.
func DropStorage() int {
	storagePool.Lock()
	defer storagePool.Unlock()
	n := len(storagePool.sets)
	clear(storagePool.sets)
	storagePool.sets = storagePool.sets[:0]
	return n
}

// adopt gives e, a new Env, the storage of the Env shut down last, if the
// pool holds any. It is already in a new Env's state (see handOn).
func (e *Env) adopt() {
	storagePool.Lock()
	defer storagePool.Unlock()
	n := len(storagePool.sets) - 1
	if n < 0 {
		return
	}
	s := storagePool.sets[n]
	storagePool.sets[n] = storage{}
	storagePool.sets = storagePool.sets[:n]
	e.slabs, e.procs, e.q, e.kept = s.slabs, s.procs, s.q, s.kept
}

// handOn resets e's storage to a new Env's state and hands it to the pool,
// or drops it if the pool is full; e keeps none of it. Shutdown calls it
// once no process holds a coroutine. Every Timer of e is left unarmed,
// and e drops its timer registry, so a Timer still queued names nothing in
// the storage. The Procs and the free list are cleared, which ends the
// processes that held no coroutine, the queue is emptied and the kept
// value is Reset, so a kept set pins nothing of the Env it came from.
func (e *Env) handOn() {
	for _, t := range e.timers {
		t.key = 0
	}
	if e.kept != nil {
		e.kept.Reset()
	}
	s := storage{slabs: e.slabs, procs: e.procs[:0], kept: e.kept}
	e.slabs, e.procs, e.slab, e.timers, e.spare, e.nDead, e.kept = nil, nil, 0, nil, nil, 0, nil
	for i, slab := range s.slabs {
		clear(slab)
		s.slabs[i] = slab[:0]
	}
	clear(s.procs[:cap(s.procs)])
	s.q, e.q = e.q, eventQueue{}
	s.q.reset()
	if e.seq == 0 && len(s.slabs) == 0 && len(s.q.nodes) == 0 {
		return // an Env that scheduled nothing on storage of its own has nothing worth keeping
	}
	storagePool.Lock()
	defer storagePool.Unlock()
	if len(storagePool.sets) < runtime.GOMAXPROCS(0) {
		storagePool.sets = append(storagePool.sets, s)
	}
}
