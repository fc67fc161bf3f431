//! External synchrony (§3): outbound messages from a consistency group
//! are buffered until the checkpoint covering their computation is
//! durable — so the outside world never observes state that could be
//! rolled back.
//!
//! No synchrony is needed *within* a group (all members roll back
//! together), and descriptors opted out via `sls_fdctl` release
//! immediately (e.g. read-only responses, §3).

use crate::{GroupId, Sls, SlsError};
use aurora_posix::file::FileKind;
use std::collections::{HashMap, HashSet};

impl Sls {
    /// Sockets owned by a group's members (by fd table reference).
    fn group_sockets(&self, gid: GroupId) -> Result<HashSet<u64>, SlsError> {
        let mut out = HashSet::new();
        for pid in self.group_pids(gid)? {
            let p = self.kernel.proc(pid)?;
            for (_, fid) in p.fdtable.iter() {
                if let Ok(f) = self.kernel.files.get(fid) {
                    if let FileKind::Socket(s) = f.kind {
                        out.insert(s);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Sockets whose *every* referencing descriptor has external
    /// synchrony disabled via `sls_fdctl`.
    fn extsync_disabled_sockets(&self) -> HashSet<u64> {
        let mut enabled = HashSet::new();
        let mut disabled = HashSet::new();
        for (_, f) in self.kernel.files.iter() {
            if let FileKind::Socket(s) = f.kind {
                if f.extsync_disabled {
                    disabled.insert(s);
                } else {
                    enabled.insert(s);
                }
            }
        }
        disabled.retain(|s| !enabled.contains(s));
        disabled
    }

    /// Seals the current outbound high-water marks of the group's sockets
    /// under the in-progress checkpoint. Returns sid → messages sealed so
    /// far (absolute count).
    pub(crate) fn seal_group_sockets(
        &mut self,
        gid: GroupId,
    ) -> Result<HashMap<u64, usize>, SlsError> {
        let members = self.group_sockets(gid)?;
        let mut counts = HashMap::new();
        for &sid in &members {
            if let Ok(s) = self.kernel.sockets.get(sid) {
                counts.insert(sid, s.sent_count as usize);
            }
        }
        Ok(counts)
    }

    /// Delivers everything deliverable *now*:
    ///
    /// * sealed batches whose covering checkpoint is durable,
    /// * traffic between members of the same group (no synchrony needed),
    /// * sockets opted out via `sls_fdctl`,
    /// * sockets not owned by any synchronized group.
    pub fn pump_external_synchrony(&mut self) {
        let now = self.kernel.charge.clock().now();

        // Which sockets are withheld (owned by an extsync-on group and
        // not opted out), and which pairs are intra-group?
        let mut withheld: HashSet<u64> = HashSet::new();
        let gids: Vec<GroupId> = self.groups.keys().copied().collect();
        let mut ownership: HashMap<u64, GroupId> = HashMap::new();
        for gid in &gids {
            if !self.groups[gid].opts.external_synchrony {
                continue;
            }
            if let Ok(sockets) = self.group_sockets(*gid) {
                for s in sockets {
                    ownership.insert(s, *gid);
                    withheld.insert(s);
                }
            }
        }
        for s in self.extsync_disabled_sockets() {
            withheld.remove(&s);
        }
        // Intra-group pairs release immediately.
        let intra: Vec<u64> = withheld
            .iter()
            .copied()
            .filter(|sid| {
                let peer = self.kernel.sockets.get(*sid).ok().and_then(|s| s.peer);
                match peer {
                    Some(p) => ownership.get(sid) == ownership.get(&p) && ownership.contains_key(&p),
                    None => false,
                }
            })
            .collect();
        for sid in intra {
            withheld.remove(&sid);
        }

        // Release durable sealed batches (per group, FIFO). Each group's
        // queue drains against its *own* durability horizons — a slow
        // flush in one group never serializes another group's releases,
        // because commit barriers are per-draft in the store.
        for gid in &gids {
            let mut to_release: Vec<(u64, usize)> = Vec::new();
            let mut released_batches: Vec<(u64, u64, u64, u64)> = Vec::new();
            {
                let g = self.groups.get_mut(gid).expect("listed");
                let gate = g.release_gate;
                while let Some(front) = g.sealed.front() {
                    if front.durable_at > now {
                        break;
                    }
                    // Cluster quorum gate: locally durable is not enough
                    // when replication is on — the epoch must also be
                    // under this group's quorum durable watermark.
                    if gate.is_some_and(|w| front.epoch > w) {
                        break;
                    }
                    let batch = g.sealed.pop_front().expect("checked front");
                    released_batches.push((
                        batch.epoch,
                        batch.durable_at,
                        batch.sealed_at,
                        batch.counts.len() as u64,
                    ));
                    for (sid, upto) in batch.counts {
                        to_release.push((sid, upto));
                    }
                }
            }
            self.extsync_released += released_batches.len() as u64;
            let trace = self.kernel.charge.trace();
            if trace.is_enabled() {
                for (epoch, durable_at, sealed_at, sockets) in released_batches {
                    trace.instant(
                        "extsync",
                        "extsync.release",
                        &[
                            ("epoch", epoch),
                            ("group", gid.0),
                            ("durable_at", durable_at),
                            ("sockets", sockets),
                        ],
                    );
                    trace.hist("release_latency", now.saturating_sub(sealed_at));
                }
            }
            for (sid, upto) in to_release {
                let already = self
                    .kernel
                    .sockets
                    .get(sid)
                    .map(|s| s.sent_count as usize - s.send_buf.len())
                    .unwrap_or(0);
                if upto > already {
                    self.kernel.deliver_n(sid, upto - already);
                }
            }
        }

        // Everything not withheld flows freely.
        let all: Vec<u64> = self.kernel.sockets.ids().collect();
        for sid in all {
            if !withheld.contains(&sid) {
                self.kernel.deliver_n(sid, usize::MAX);
            }
        }
    }
}
