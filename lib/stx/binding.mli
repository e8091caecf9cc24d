(** The global binding table of the sets-of-scopes expander.

    A binding associates (name, scope set) with a record carrying a
    globally unique id.  The paper relies on exactly this property (§5):
    "identifiers in Racket are given globally fresh names that are stable
    across modules during the expansion process", so identifier-keyed
    tables (type environments, namespaces) work across modules with no
    extra plumbing.

    The table is keyed by interned symbol id and {!resolve} is memoized per
    (symbol id, scope-set representative id), with invalidation on {!add}
    — see docs/architecture.md, "hygiene internals".

    The table, cache and counters are domain-local, seeded at
    [Domain.spawn] with a copy of the parent's table; binding uids remain
    globally fresh across domains (see docs/architecture.md, "Parallelism
    & domain-safety"). *)

exception Ambiguous of Stx.t
(** raised by {!resolve} when candidate bindings are not totally ordered by
    scope-set inclusion — the classic hygiene error *)

type t = { uid : int; name : string }

val fresh : string -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string

(** [add id b] records that [id]'s name, under [id]'s scope set, refers to
    [b].  Re-adding with the same name and scope set replaces (supports
    module-level redefinition).  Invalidates the resolver cache for that
    name. *)
val add : Stx.t -> t -> unit

(** Bind [id] to a fresh binding and return it. *)
val bind : Stx.t -> t

(** Resolve a reference: among all bindings for the name whose scope set is
    a subset of the reference's, the one with the largest scope set.
    Memoized; when exactly one candidate matches, the ambiguity
    total-order check is skipped. *)
val resolve : Stx.t -> t option

(** Racket's [free-identifier=?]: do two identifiers refer to the same
    binding?  Unbound identifiers compare by name. *)
val free_identifier_eq : Stx.t -> Stx.t -> bool

(** Resolver-cache hit/miss counts for the calling domain (monotonic plain
    ints — the hot path never hashes a metric name).  The pipeline reports
    deltas as the ["expand.resolve_hits"] / ["expand.resolve_misses"]
    metrics; the parallel build driver flushes each worker's deltas into
    that worker's collector before merge-on-join. *)
val resolve_hits : unit -> int

val resolve_misses : unit -> int

(** Testing hook: forget all bindings (and the resolver cache). *)
val reset_for_tests : unit -> unit

type snapshot
(** An immutable copy of the binding table, for measurement isolation. *)

(** Capture the current binding table.  O(table size); entry lists are
    immutable, so the copy is shallow. *)
val snapshot : unit -> snapshot

(** Replace the binding table with a previously captured {!snapshot} and
    drop the resolver cache.  Used by the repository benchmark to make
    repeated rounds leave no residue: throwaway modules compiled for
    timing would otherwise keep growing the per-name binder lists that
    every later resolution scans. *)
val restore : snapshot -> unit
