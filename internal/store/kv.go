// Package store implements each shard's data substrate: a YCSB-style
// key-value table with deterministic read-modify-write execution, and the
// per-key lock table RingBFT uses to lock read-write sets in transactional
// sequence order (Fig 5 lines 17-28).
package store

import (
	"fmt"
	"sort"
	"sync"

	"ringbft/internal/types"
)

// KV is one shard's partition of the YCSB table. The replica loop is its
// only writer; the mutex lets Cluster.Read and the harness read it from
// other goroutines while the loop executes.
type KV struct {
	mu   sync.RWMutex
	data map[types.Key]types.Value
}

// NewKV returns an empty table.
func NewKV() *KV {
	return &KV{data: make(map[types.Key]types.Value)}
}

// Preload installs n records owned by shard s in a system of z shards with
// initial values equal to their key, mirroring the paper's identical YCSB
// table initialization at every replica (Section 8, "Benchmark").
func (kv *KV) Preload(s types.ShardID, z int, n int) {
	for i := 0; i < n; i++ {
		k := types.Key(uint64(s) + uint64(i)*uint64(z))
		kv.Set(k, types.Value(k))
	}
}

// Get returns the value of k (zero if absent).
func (kv *KV) Get(k types.Key) types.Value {
	kv.mu.RLock()
	v := kv.data[k]
	kv.mu.RUnlock()
	return v
}

// Set writes v at k.
func (kv *KV) Set(k types.Key, v types.Value) {
	kv.mu.Lock()
	kv.data[k] = v
	kv.mu.Unlock()
}

// Len returns the number of records.
func (kv *KV) Len() int {
	kv.mu.RLock()
	n := len(kv.data)
	kv.mu.RUnlock()
	return n
}

// ExecuteTxn applies the shard-local fragment of t at shard s deterministically:
//
//	combined = Δ + Σ(values of all reads, local and remote)
//	for every local write key k: data[k] += combined
//
// remote maps read keys owned by other shards to the values carried in Σ
// (Execute messages / accumulated Forward read sets). The returned result is
// the combined operand, identical at every shard, so clients can match f+1
// identical responses. Missing remote reads return an error — execution must
// never guess at dependency values (determinism requirement, Section 3).
func (kv *KV) ExecuteTxn(t *types.Txn, s types.ShardID, z int, remote map[types.Key]types.Value) (types.Value, error) {
	combined := t.Delta
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			combined += kv.Get(k)
		} else {
			v, ok := remote[k]
			if !ok {
				return 0, fmt.Errorf("store: missing remote read %d for txn %v at shard %d", k, t.ID, s)
			}
			combined += v
		}
	}
	kv.applyWrites(t, s, z, combined)
	return combined, nil
}

// ApplyTxnWrites applies only the write half of t's read-modify-write with
// a precomputed combined operand. WAL replay and peer state transfer use it:
// the combined value was recorded at original execution time, so recovery
// re-applies writes deterministically without the cross-shard read values
// (Σ) that produced it.
func (kv *KV) ApplyTxnWrites(t *types.Txn, s types.ShardID, z int, combined types.Value) {
	kv.applyWrites(t, s, z, combined)
}

func (kv *KV) applyWrites(t *types.Txn, s types.ShardID, z int, combined types.Value) {
	kv.mu.Lock()
	for _, k := range t.Writes {
		if types.OwnerShard(k, z) == s {
			kv.data[k] += combined
		}
	}
	kv.mu.Unlock()
}

// ReadLocal returns the current values of the reads of t owned by shard s,
// in key order, for accumulation into Forward read sets.
func (kv *KV) ReadLocal(t *types.Txn, s types.ShardID, z int) ([]types.Key, []types.Value) {
	var ks []types.Key
	var vs []types.Value
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			ks = append(ks, k)
			vs = append(vs, kv.Get(k))
		}
	}
	return ks, vs
}

// Digest folds the table into a single state digest for checkpoints. The
// fold is a commutative accumulation (sum of key*value mixes) so it is
// order-independent and cheap; collisions are irrelevant for the simulated
// checkpoint agreement, which compares honest replicas' identical states.
// A transaction's writes apply under one lock hold, so a concurrent Digest
// sees each transaction whole or not at all.
func (kv *KV) Digest() types.Digest {
	kv.mu.RLock()
	var acc [4]uint64
	//ringbft:ignore mapiter acc accumulates with commutative uint64 addition keyed by k; iteration order cannot change the digest
	for k, v := range kv.data {
		x := uint64(k)*0x9E3779B97F4A7C15 ^ uint64(v)*0xC2B2AE3D27D4EB4F
		acc[k%4] += x
	}
	kv.mu.RUnlock()
	var d types.Digest
	for i, a := range acc {
		for j := 0; j < 8; j++ {
			d[i*8+j] = byte(a >> (8 * j))
		}
	}
	return d
}

// Pair is one record of the table, used by snapshots (package wal) and
// state transfer (the wire type lives in package types).
type Pair = types.Pair

// Pairs returns every record sorted by key — the canonical dump a snapshot
// persists.
func (kv *KV) Pairs() []Pair {
	kv.mu.RLock()
	out := make([]Pair, 0, len(kv.data))
	for k, v := range kv.data {
		out = append(out, Pair{K: k, V: v})
	}
	kv.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// Restore replaces the entire table content with pairs (crash recovery and
// peer state transfer installs).
func (kv *KV) Restore(pairs []Pair) {
	data := make(map[types.Key]types.Value, len(pairs))
	for _, p := range pairs {
		data[p.K] = p.V
	}
	kv.mu.Lock()
	kv.data = data
	kv.mu.Unlock()
}

// ExecuteTxnPartial applies the shard-local fragment of t treating missing
// remote reads as zero instead of failing. The AHL and Sharper baselines use
// it: neither ships remote read values (supporting complex cross-shard
// transactions "remains an open problem" for them, Section 8.8), so their
// execution is best-effort over locally available data. Deterministic across
// replicas, which is all their response matching needs.
func (kv *KV) ExecuteTxnPartial(t *types.Txn, s types.ShardID, z int) types.Value {
	combined := t.Delta
	for _, k := range t.Reads {
		if types.OwnerShard(k, z) == s {
			combined += kv.Get(k)
		}
	}
	kv.applyWrites(t, s, z, combined)
	return combined
}

// ExecuteBatchPartial applies ExecuteTxnPartial to every transaction of a
// batch in batch order and returns the results.
func (kv *KV) ExecuteBatchPartial(txns []types.Txn, s types.ShardID, z int) []types.Value {
	results := make([]types.Value, len(txns))
	for i := range txns {
		results[i] = kv.ExecuteTxnPartial(&txns[i], s, z)
	}
	return results
}
