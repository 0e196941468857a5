package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro"
	"repro/internal/ids"
)

// New builds an in-memory K-shard fleet over ds. Every shard engine
// shares the (immutable) dataset but owns a disjoint user partition: its
// training slice is the global training log filtered to owned users'
// actions, and its candidate pools track exactly the owned users. The
// shard graphs build concurrently — a K-shard fleet constructs in
// roughly the time of its largest shard on K cores.
//
// eopts.Train nil uses ds.Actions (the engine default). eopts.TrackUsers
// must be nil: ownership is the ring's job. eopts.WAL must be nil (use
// Open for durable fleets). eopts.ColdStartFallback is forced off on the
// shard engines — the router implements cold start itself, as a
// scatter-gather over (*repro.Engine).ColdStartPartial, so a cold
// user's followee aggregate spans the whole fleet instead of one shard.
func New(ds *repro.Dataset, eopts repro.EngineOptions, opts Options) (*Router, error) {
	ring, err := NewRing(opts.Shards, opts.Replicas, opts.Seed)
	if err != nil {
		return nil, err
	}
	if eopts.TrackUsers != nil {
		return nil, errors.New("shard: EngineOptions.TrackUsers must be nil; the ring assigns tracked users per shard")
	}
	if eopts.WAL != nil {
		return nil, errors.New("shard: EngineOptions.WAL must be nil; use Open for per-shard durability")
	}
	r := newRouter(ds, ring, opts)
	owned := ring.Partition(ds.NumUsers())
	train := eopts.Train
	if train == nil {
		train = ds.Actions
	}
	var wg sync.WaitGroup
	errs := make([]error, ring.NumShards())
	for i := 0; i < ring.NumShards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			so := shardEngineOptions(eopts, train, owned[i], ring, i)
			e, err := repro.NewEngine(ds, so)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			r.shards[i] = e
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return r, nil
}

// shardEngineOptions derives shard i's engine options from the fleet
// options: the filtered training slice, the owned tracking set, and the
// router-owned cold-start policy.
func shardEngineOptions(eopts repro.EngineOptions, train []repro.Action, owned []ids.UserID, ring *Ring, i int) repro.EngineOptions {
	so := eopts
	so.Train = filterTrain(train, ring, i)
	so.TrackUsers = owned
	so.ColdStartFallback = false
	return so
}

// filterTrain keeps the actions whose user shard i owns. The result is
// always non-nil (an empty shard must not fall back to the whole log).
func filterTrain(train []repro.Action, ring *Ring, i int) []repro.Action {
	out := make([]repro.Action, 0, len(train)/ring.NumShards()+1)
	for _, a := range train {
		if ring.Owner(a.User) == i {
			out = append(out, a)
		}
	}
	return out
}

// routerManifest pins the ring parameters a durability directory was
// created with. Reopening with a different ownership function would
// silently misroute every user away from their persisted state, so Open
// refuses a mismatch instead of recovering garbage.
type routerManifest struct {
	Version  int    `json:"version"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	Seed     uint64 `json:"seed"`
	NumUsers int    `json:"num_users"`
}

const routerManifestName = "router.json"

// shardDir names shard i's durability subdirectory.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// Open opens (creating if needed) a durable K-shard fleet rooted at dir:
// shard i recovers from and logs into dir/shard-00i via repro.OpenEngine,
// so every shard has its own WAL segments and checkpoint generations and
// recovers independently. A router manifest (router.json) records the
// ring parameters on first open and is verified on every later one.
//
// oopts.Dataset is required even on reopen: the per-shard training
// slices are filtered views of the global log, which a shard checkpoint
// alone cannot reconstruct (its manifest records the slice as custom).
// oopts.Engine.Train nil uses Dataset.Actions. Recovery statistics are
// returned per shard, indexed like the shards.
func Open(dir string, oopts repro.OpenOptions, opts Options) (*Router, []repro.RecoveryStats, error) {
	ring, err := NewRing(opts.Shards, opts.Replicas, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	ds := oopts.Dataset
	if ds == nil {
		return nil, nil, errors.New("shard: Open requires OpenOptions.Dataset (per-shard training slices are filtered from the global log)")
	}
	if oopts.Engine.TrackUsers != nil {
		return nil, nil, errors.New("shard: EngineOptions.TrackUsers must be nil; the ring assigns tracked users per shard")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := ensureRouterManifest(dir, routerManifest{
		Version:  1,
		Shards:   ring.NumShards(),
		Replicas: ring.Replicas(),
		Seed:     ring.Seed(),
		NumUsers: ds.NumUsers(),
	}); err != nil {
		return nil, nil, err
	}
	r := newRouter(ds, ring, opts)
	r.dirs = make([]string, ring.NumShards())
	owned := ring.Partition(ds.NumUsers())
	train := oopts.Engine.Train
	if train == nil {
		train = ds.Actions
	}
	stats := make([]repro.RecoveryStats, ring.NumShards())
	errs := make([]error, ring.NumShards())
	var wg sync.WaitGroup
	for i := 0; i < ring.NumShards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			so := oopts
			so.Engine = shardEngineOptions(oopts.Engine, train, owned[i], ring, i)
			so.Dataset = ds
			sd := shardDir(dir, i)
			e, rs, err := repro.OpenEngine(sd, so)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d (%s): %w", i, sd, err)
				return
			}
			r.shards[i] = e
			r.dirs[i] = sd
			stats[i] = rs
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		// Close the shards that did open so their WALs flush.
		for _, e := range r.shards {
			if e != nil {
				e.Close()
			}
		}
		return nil, nil, err
	}
	return r, stats, nil
}

// ManifestOptions reads dir's router manifest — the ring a durability
// directory was created with — and returns the Options that reopen it,
// plus the user count the manifest pins (Open refuses a dataset of any
// other size). It lets an operator tool recover a fleet without knowing
// the original sharding flags; a missing manifest surfaces as
// os.ErrNotExist, meaning dir is not a sharded durability root.
func ManifestOptions(dir string) (Options, int, error) {
	buf, err := os.ReadFile(filepath.Join(dir, routerManifestName))
	if err != nil {
		return Options{}, 0, err
	}
	var m routerManifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return Options{}, 0, fmt.Errorf("shard: corrupt %s: %w", routerManifestName, err)
	}
	return Options{Shards: m.Shards, Replicas: m.Replicas, Seed: m.Seed}, m.NumUsers, nil
}

// ensureRouterManifest writes the manifest on first open and verifies it
// byte-for-field on reopen.
func ensureRouterManifest(dir string, want routerManifest) error {
	path := filepath.Join(dir, routerManifestName)
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		// Atomic-enough for a config file: the per-shard durability state
		// has its own crash-safe manifests; a torn router.json fails the
		// JSON parse on reopen and the operator re-runs with the same
		// flags.
		return os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	var got routerManifest
	if err := json.Unmarshal(buf, &got); err != nil {
		return fmt.Errorf("shard: corrupt %s: %w", path, err)
	}
	if got != want {
		return fmt.Errorf("shard: %s was created with shards=%d replicas=%d seed=%d users=%d; reopening with shards=%d replicas=%d seed=%d users=%d would misroute persisted users",
			path, got.Shards, got.Replicas, got.Seed, got.NumUsers,
			want.Shards, want.Replicas, want.Seed, want.NumUsers)
	}
	return nil
}

// Checkpoint snapshots every shard into its own directory, concurrently.
// Shard checkpoints are independent: there are no cross-shard
// transactions to order (an action touches exactly one shard), so "all
// shards checkpointed at least once" is the only fleet-level recovery
// requirement, and each shard's WAL covers whatever its own checkpoint
// lag leaves over. Stats are indexed by shard.
func (r *Router) Checkpoint() ([]repro.CheckpointStats, error) {
	if r.dirs == nil {
		return nil, errors.New("shard: Checkpoint requires a fleet built by Open")
	}
	stats := make([]repro.CheckpointStats, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := r.shards[i].Checkpoint(r.dirs[i])
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()
	return stats, errors.Join(errs...)
}

// Close closes every shard engine (stopping background
// refreshers/checkpointers and flushing WALs). Safe to call more than
// once.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		errs := make([]error, 0, len(r.shards))
		for i, e := range r.shards {
			if e == nil {
				continue
			}
			if err := e.Close(); err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			}
		}
		r.closeErr = errors.Join(errs...)
	})
	return r.closeErr
}
