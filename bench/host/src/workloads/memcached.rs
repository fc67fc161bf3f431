//! `memcached_100hz` — the application view (Fig. 4): the in-tree
//! Memcached under the Mutilate ETC mix, 576 simulated closed-loop
//! connections, transparently checkpointed every 10 ms of virtual time.
//!
//! *Why:* it uses the same vm/posix layers as `ckpt_sparse` differently:
//! millions of tiny `mem_write`/`mem_read` calls on the no-fault fast
//! path between epochs, scattered LRU-metadata COW faults after each
//! shadow, a collapse every epoch under live traffic. A bulk-flush gain
//! bought with per-write bookkeeping shows as a loss here. The median op
//! is request cost; the p95 op holds a checkpoint.
//!
//! The driver is `crates/bench/src/memcached_sim.rs` re-implemented here
//! (closed loop only), with seeded value bytes and a shadow map so GET
//! results and post-crash contents can be checked.

use super::common::{self, APP_BYTES, APP_LAT_NS, APP_OPS, MEM_WRITES, RESTORE_NS};
use super::Workload;
use crate::gen;
use crate::harness::Harness;
use crate::machine::Machine;
use aurora_apps::memcached::Memcached;
use aurora_core::{GroupId, RestoreMode, SlsOptions};
use aurora_sim::units::MS;
use aurora_sim::{DetRng, Rng};
use aurora_vm::{CollapseMode, PAGE_SIZE};
use aurora_workloads::mutilate::{McOp, Mutilate, MutilateConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// One-way client↔server latency (10 GbE + kernel network stack), as in
/// `memcached_sim.rs`.
const NET_ONE_WAY_NS: u64 = 40_000;

/// Sizes of the workload.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Value-arena pages (256 MiB nominal).
    pub arena_pages: u64,
    /// Server threads.
    pub threads: u32,
    /// Generator ops used to preload the working set.
    pub preload: usize,
    /// Requests per timed op.
    pub requests_per_op: usize,
    /// Checkpoint period, virtual ns.
    pub period_ns: u64,
    /// `retain_last(gid, retain)` every `gc_every`-th checkpoint.
    pub retain: usize,
    /// See `retain`.
    pub gc_every: u64,
    /// Untimed warm-up ops.
    pub warmup: usize,
    /// Keys read back after the final crash + restore.
    pub verify_keys: usize,
}

/// The running workload.
pub struct MemcachedRun {
    m: Machine,
    mc: Memcached,
    gid: GroupId,
    sizes: Sizes,
    load: Mutilate,
    values: DetRng,
    /// Pending requests: (client send time, connection).
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    next_ckpt: u64,
    checkpoints: u64,
    /// What every key must read as right now.
    latest: HashMap<Vec<u8>, Vec<u8>>,
    /// What every key read as when the last checkpoint was taken.
    durable: HashMap<Vec<u8>, Vec<u8>>,
    /// Keys SET since the last checkpoint.
    dirty: Vec<Vec<u8>>,
    wraps_seen: u64,
    lat: Vec<f64>,
}

impl MemcachedRun {
    fn maybe_checkpoint(&mut self, h: &mut Harness) -> Result<(), String> {
        if self.m.clock.now() < self.next_ckpt {
            return Ok(());
        }
        common::checkpoint(h, &mut self.m.sls, self.gid)?;
        self.checkpoints += 1;
        for key in self.dirty.drain(..) {
            if let Some(v) = self.latest.get(&key) {
                self.durable.insert(key, v.clone());
            }
        }
        let now = self.m.clock.now();
        let p = self.sizes.period_ns;
        self.next_ckpt = self.next_ckpt.max(now - now % p) + p;
        if self.checkpoints.is_multiple_of(self.sizes.gc_every) {
            common::retain_last(h, &mut self.m.sls, self.gid, self.sizes.retain)?;
            // Bound the store's page cache the way an operator would.
            // Every delta record caches a whole materialized frame, and
            // the hot LRU-metadata pages log a delta every epoch, so
            // their chains never end in a full image and `retain_last`
            // cannot free those frames: without this call the run grows
            // by ~2 MiB per op (README, "One-off observations").
            let store = self.m.sls.store().clone();
            h.call("objstore.drop_page_cache", || {
                store.lock().drop_page_cache()
            });
        }
        Ok(())
    }

    /// Serves `n` requests of the closed loop; returns `(SETs, value
    /// bytes stored)`.
    fn serve(&mut self, h: &mut Harness, n: usize) -> Result<(u64, u64), String> {
        let (mut sets, mut value_bytes) = (0, 0);
        for _ in 0..n {
            let Reverse((send_time, conn)) = self.queue.pop().expect("closed loop never drains");
            self.maybe_checkpoint(h)?;
            self.m.clock.advance_to(send_time + NET_ONE_WAY_NS); // idle server waits for work
            let (load, values) = (&mut self.load, &mut self.values);
            let (op, value) = h.call("workloads.next_op", || {
                let op = load.next_op();
                let value = match &op {
                    McOp::Set { value_len, .. } => {
                        let mut v = vec![0u8; *value_len];
                        gen::fill(values, &mut v);
                        v
                    }
                    McOp::Get { .. } => Vec::new(),
                };
                (op, value)
            });
            let k = &mut self.m.sls.kernel;
            match op {
                McOp::Get { key } => {
                    let got = h
                        .call("apps.get", || self.mc.get(k, &key))
                        .map_err(|e| format!("GET: {e}"))?;
                    h.mix(gen::content_hash(&key));
                    if got.as_deref() != self.latest.get(&key).map(Vec::as_slice) {
                        h.fail(format!(
                            "GET {} returned the wrong value",
                            String::from_utf8_lossy(&key)
                        ));
                    }
                }
                McOp::Set { key, .. } => {
                    h.call("apps.set", || self.mc.set(k, &key, &value))
                        .map_err(|e| format!("SET: {e}"))?;
                    h.mix(gen::content_hash(&key) ^ gen::content_hash(&value));
                    sets += 1;
                    value_bytes += value.len() as u64;
                    if self.mc.wraps != self.wraps_seen {
                        // The bump arena wrapped: the server dropped its
                        // whole index, so must the shadow.
                        self.wraps_seen = self.mc.wraps;
                        self.latest.clear();
                        self.durable.clear();
                        self.dirty.clear();
                    }
                    self.dirty.push(key.clone());
                    self.latest.insert(key, value);
                }
            }
            let done = self.m.clock.now();
            self.lat.push((done + NET_ONE_WAY_NS - send_time) as f64);
            // Closed loop: the client sends again on receipt.
            self.queue.push(Reverse((done + 2 * NET_ONE_WAY_NS, conn)));
        }
        Ok((sets, value_bytes))
    }
}

impl Workload for MemcachedRun {
    const NAME: &'static str = "memcached_100hz";
    const OPS_PER_SECOND: f64 = 110.0;
    // ~4.7 ops per 10 ms checkpoint period: 1 100 ops hold ~230
    // checkpoints, the fewest that leave stop time's p95 ten samples
    // beyond it with some margin.
    const MIN_OPS: usize = 1100;
    type Sizes = Sizes;

    fn nominal() -> Sizes {
        Sizes {
            arena_pages: 64 * 1024,
            threads: 12,
            preload: 20_000,
            requests_per_op: 1000,
            period_ns: 10 * MS,
            retain: 8,
            gc_every: 16,
            warmup: 40,
            verify_keys: 1000,
        }
    }

    fn setup(sizes: &Sizes, seed: u64, wrap: bool, h: &mut Harness) -> Result<Self, String> {
        let mut m = Machine::boot(&h.spans, h.clock(), wrap);
        let mc = Memcached::launch(&mut m.sls.kernel, sizes.arena_pages, sizes.threads)
            .map_err(|e| format!("launch: {e}"))?;
        let cfg = MutilateConfig {
            seed,
            ..MutilateConfig::default()
        };
        let conns = cfg.connections();
        let mut w = MemcachedRun {
            m,
            mc,
            gid: GroupId(0),
            sizes: sizes.clone(),
            load: Mutilate::new(cfg),
            values: gen::lane(seed, 1),
            queue: BinaryHeap::new(),
            next_ckpt: 0,
            checkpoints: 0,
            latest: HashMap::new(),
            durable: HashMap::new(),
            dirty: Vec::new(),
            wraps_seen: 0,
            lat: Vec::new(),
        };
        h.muted = true;
        // Preload the working set so GETs hit (every generated op stores
        // its key, as memcached_sim.rs does).
        for _ in 0..sizes.preload {
            let (key, len) = match w.load.next_op() {
                McOp::Set { key, value_len } => (key, value_len),
                McOp::Get { key } => (key, 4),
            };
            let mut value = vec![0u8; len];
            gen::fill(&mut w.values, &mut value);
            w.mc.set(&mut w.m.sls.kernel, &key, &value)
                .map_err(|e| format!("preload: {e}"))?;
            w.latest.insert(key, value);
        }
        w.gid =
            w.m.sls
                .attach(
                    w.mc.pid,
                    SlsOptions {
                        period_ns: sizes.period_ns,
                        external_synchrony: false, // §8: not used in the paper's evaluation
                        collapse_mode: CollapseMode::Reversed,
                    },
                )
                .map_err(|e| format!("attach: {e}"))?;
        common::checkpoint(h, &mut w.m.sls, w.gid)?;
        common::barrier(h, &mut w.m.sls, w.gid)?;
        w.durable = w.latest.clone();
        let t0 = w.m.clock.now();
        w.next_ckpt = t0 + sizes.period_ns;
        for c in 0..conns {
            w.queue.push(Reverse((t0, c)));
        }
        for _ in 0..sizes.warmup {
            w.serve(h, sizes.requests_per_op)?;
        }
        w.lat.clear();
        h.muted = false;
        Ok(w)
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn op(&mut self, i: usize, h: &mut Harness) -> Result<(), String> {
        let n = self.sizes.requests_per_op;
        h.op_begin(i);
        let r = self.serve(h, n);
        h.op_end();
        let (sets, value_bytes) = r?;
        h.add(APP_OPS, n as u64);
        h.add("sets", sets);
        // Every request writes 8 bytes of LRU metadata; a SET also
        // appends its value to the arena.
        h.add(APP_BYTES, 8 * n as u64 + value_bytes);
        h.add(MEM_WRITES, n as u64 + sets);
        h.rec_all(APP_LAT_NS, self.lat.drain(..));
        Ok(())
    }

    fn verify(&mut self, h: &mut Harness) -> Result<u64, String> {
        let resident = {
            let k = &self.m.sls.kernel;
            let space = k.proc(self.mc.pid).map_err(|e| e.to_string())?.space;
            k.vm.space_resident_pages(space)
                .map_err(|e| e.to_string())?
                * PAGE_SIZE as u64
        };
        h.add("arena_wraps", self.mc.wraps);
        // Keys whose last SET precedes the last checkpoint: exactly what
        // the crash must preserve. (A key SET after it still has its new
        // arena address in the host-side index, so it is excluded.)
        let lost: HashSet<&Vec<u8>> = self.dirty.iter().collect();
        let mut keys: Vec<&Vec<u8>> = self.durable.keys().filter(|k| !lost.contains(k)).collect();
        keys.sort();
        let mut pick = gen::lane(self.values.next_u64(), 2);
        let chosen: Vec<Vec<u8>> = (0..self.sizes.verify_keys.min(keys.len()))
            .map(|_| keys[pick.gen_range(0..keys.len() as u64) as usize].clone())
            .collect();

        common::barrier(h, &mut self.m.sls, self.gid)?;
        let (manifest, epoch) = common::crash_and_find_image(h, &mut self.m.sls)?;
        let t0 = h.virt_now();
        let r = common::restore_image(h, &mut self.m.sls, manifest, epoch, RestoreMode::Lazy)?;
        let mut restored = self
            .mc
            .failover_to(*r.pids.first().ok_or("restore produced no process")?);
        let mut bad = 0u64;
        for key in &chosen {
            let got = restored
                .get(&mut self.m.sls.kernel, key)
                .map_err(|e| format!("post-crash GET: {e}"))?;
            bad += (got.as_ref() != self.durable.get(key)) as u64;
        }
        h.rec(RESTORE_NS, (h.virt_now() - t0) as f64);
        h.check(!chosen.is_empty() && bad == 0, || {
            format!(
                "{bad} of {} durable keys read back wrong after crash + restore",
                chosen.len()
            )
        });
        Ok(resident)
    }
}
