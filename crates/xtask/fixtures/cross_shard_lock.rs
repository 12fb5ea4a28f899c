// Fixture: router-level lock guards spanning member-Engine entry points.
fn live_guard_across_entry(tier: &Tier) {
    let guard = tier.registry.lock();
    tier.shards[0].open_session("q");
    drop(guard);
    tier.shards[0].expand(id, node);
}
fn same_line_temporary_guard(tier: &Tier) {
    tier.table.lock().with_session(id, op);
}
fn scope_closed_before_entry(tier: &Tier) {
    {
        let guard = tier.table.lock();
        let _ = guard.len();
    }
    tier.shards[1].close_session(id);
}
fn annotated_fan_in(tier: &Tier) {
    // lint: allow(no-cross-shard-lock) — result-slot lock, owned by this call, not a shard lock
    let slot = results.lock();
    tier.shards[0].expand(id, node);
    drop(slot);
}
