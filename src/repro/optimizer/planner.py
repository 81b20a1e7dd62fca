"""The legacy "Planner" baseline optimizer.

This reproduces the behaviour of GPDB's pre-Orca planner as the paper
describes it (Sections 4.4 and 5):

* **Partitioned scans are expanded statically**: the plan contains an
  Append listing one LeafScan per partition that survives *static*
  elimination — so plan size grows **linearly** with the partition count
  (Figure 18(a,b)).
* **Static elimination only at plan time**: constant predicates on the
  partition key prune the Append's children; parameters and join values
  cannot prune (they are unknown), so all leaves stay listed.
* **Rudimentary dynamic elimination**: for the simple pattern of an
  equality hash join on a single-level partition key, the planner computes
  qualifying partition OIDs at run time into a parameter (modelled by a
  PartitionSelector producer feeding ``guard_scan_id``-marked LeafScans).
  The plan still lists every leaf.  Anything more complex — multi-level
  keys, redistributed probe sides — falls back to scanning all listed
  partitions, matching the paper's "works for simple queries and schema
  designs".
* **DML over partitioned tables enumerates partition-pair joins**: an
  UPDATE joining two partitioned tables becomes an Append over all
  (target leaf × source leaf) joins — **quadratic** plan growth
  (Figure 18(c)).
* Join order is the query's FROM order (no exploration); distribution is
  fixed by simple heuristics, not costed alternatives.
"""

from __future__ import annotations

from ..catalog import Catalog, DistributionPolicy, TableDescriptor
from ..errors import OptimizerError
from ..expr.analysis import derive_interval_set, find_preds_on_keys
from ..expr.ast import ColumnRef, Expression
from ..logical.ops import (
    LogicalDelete,
    LogicalGet,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalOp,
    LogicalProject,
    LogicalSelect,
    LogicalSort,
    LogicalUpdate,
)
from ..physical import ops as phys
from ..physical.plan import Plan
from ..physical.properties import DistributionSpec, PartSelectorSpec
from .rules import split_equijoin
from .stats import StatsRegistry


class PlannerOptimizer:
    """Heuristic bottom-up planner with static partition expansion."""

    def __init__(
        self,
        catalog: Catalog,
        stats: StatsRegistry,
        num_segments: int = 4,
        enable_static_elimination: bool = True,
        enable_param_dpe: bool = True,
        enable_partition_wise_join: bool = False,
    ):
        self.catalog = catalog
        self.stats = stats
        self.num_segments = num_segments
        self.enable_static_elimination = enable_static_elimination
        self.enable_param_dpe = enable_param_dpe
        #: Oracle-style partition-wise joins (paper Section 5 related work):
        #: when two tables are partitioned identically on their join keys,
        #: join matching partitions pairwise instead of whole tables.
        self.enable_partition_wise_join = enable_partition_wise_join
        self._next_guard_id = 1

    # -- public API -------------------------------------------------------

    def optimize(
        self, logical_root: LogicalOp, parameter_count: int = 0
    ) -> Plan:
        self._next_guard_id = 1
        root, delivered = self._translate(logical_root)
        if delivered.kind != DistributionSpec.SINGLETON:
            root = phys.GatherMotion(root)
            root.distribution = DistributionSpec.singleton()
        plan = Plan(root, parameter_count)
        plan.validate()
        return plan

    # -- recursion ------------------------------------------------------------

    def _translate(
        self, op: LogicalOp
    ) -> tuple[phys.PhysicalOp, DistributionSpec]:
        if isinstance(op, LogicalGet):
            return self._translate_get(op, predicate=None)
        if isinstance(op, LogicalSelect):
            return self._translate_select(op)
        if isinstance(op, LogicalProject):
            child, dist = self._translate(op.child)
            return phys.Project(child, op.items), dist
        if isinstance(op, LogicalJoin):
            return self._translate_join(op)
        if isinstance(op, LogicalGroupBy):
            return self._translate_group_by(op)
        if isinstance(op, LogicalSort):
            child, _ = self._gathered(op.child)
            return phys.Sort(child, op.keys), DistributionSpec.singleton()
        if isinstance(op, LogicalLimit):
            child, _ = self._gathered(op.child)
            return phys.Limit(child, op.count), DistributionSpec.singleton()
        if isinstance(op, LogicalUpdate):
            return self._translate_update(op)
        if isinstance(op, LogicalDelete):
            return self._translate_delete(op)
        raise OptimizerError(f"planner cannot translate {type(op).__name__}")

    def _gathered(
        self, op: LogicalOp
    ) -> tuple[phys.PhysicalOp, DistributionSpec]:
        child, dist = self._translate(op)
        if dist.kind != DistributionSpec.SINGLETON:
            child = phys.GatherMotion(child)
            child.distribution = DistributionSpec.singleton()
        return child, DistributionSpec.singleton()

    # -- scans ---------------------------------------------------------------------

    def _natural(self, table: TableDescriptor, alias: str) -> DistributionSpec:
        if table.distribution.kind == DistributionPolicy.REPLICATED:
            return DistributionSpec.replicated()
        return DistributionSpec.hashed(
            [ColumnRef(table.distribution.column, alias)]
        )

    def _translate_get(
        self, op: LogicalGet, predicate: Expression | None
    ) -> tuple[phys.PhysicalOp, DistributionSpec]:
        dist = self._natural(op.table, op.alias)
        if not op.table.is_partitioned:
            return phys.Scan(op.table, op.alias), dist
        oids = self._statically_selected_oids(op.table, op.alias, predicate)
        if not oids:
            return phys.EmptyScan(op.table, op.alias), dist
        scans: list[phys.PhysicalOp] = [
            phys.LeafScan(op.table, op.alias, oid) for oid in oids
        ]
        return phys.Append(scans), dist

    def _statically_selected_oids(
        self,
        table: TableDescriptor,
        alias: str,
        predicate: Expression | None,
    ) -> list[int]:
        """Static partition elimination: prune the explicit leaf list using
        constant predicates known at plan time."""
        if predicate is None or not self.enable_static_elimination:
            return table.all_leaf_oids()
        keys = [ColumnRef(key, alias) for key in table.partition_keys]
        level_preds = find_preds_on_keys(predicate, keys)
        derived = {}
        for key, level_pred in zip(keys, level_preds):
            if level_pred is None:
                continue
            # Parameters are unknown at plan time: best_effort treats them
            # as unrestricted, so the planner keeps all leaves.
            interval_set = derive_interval_set(
                level_pred,
                key,
                best_effort=True,
                key_type=table.schema.column(key.name).data_type,
            )
            if interval_set is not None:
                derived[key.name] = interval_set
        return table.select_leaf_oids(derived)

    def _translate_select(
        self, op: LogicalSelect
    ) -> tuple[phys.PhysicalOp, DistributionSpec]:
        if isinstance(op.child, LogicalGet):
            child, dist = self._translate_get(op.child, op.predicate)
            return phys.Filter(child, op.predicate), dist
        child, dist = self._translate(op.child)
        return phys.Filter(child, op.predicate), dist

    # -- joins ---------------------------------------------------------------------

    def _translate_join(
        self, op: LogicalJoin
    ) -> tuple[phys.PhysicalOp, DistributionSpec]:
        left_phys, left_dist = self._translate(op.left)
        right_phys, right_dist = self._translate(op.right)
        left_layout = op.left.output_layout()
        right_layout = op.right.output_layout()
        left_keys, right_keys, residual = split_equijoin(
            op.predicate, left_layout, right_layout
        )
        if self.enable_partition_wise_join and op.kind == "inner":
            pairwise = self._try_partition_wise_join(
                op, left_keys, right_keys, residual
            )
            if pairwise is not None:
                return pairwise

        if not left_keys:
            # Non-equi join: broadcast the inner side.
            right_phys = self._ensure(
                right_phys, right_dist, DistributionSpec.replicated()
            )
            join = phys.NLJoin(op.kind, left_phys, right_phys, op.predicate)
            join.distribution = left_dist
            return join, left_dist

        if op.kind == "semi":
            build_phys, build_dist = right_phys, right_dist
            probe_phys, probe_dist = left_phys, left_dist
            build_keys, probe_keys = right_keys, left_keys
        else:
            build_phys, build_dist = left_phys, left_dist
            probe_phys, probe_dist = right_phys, right_dist
            build_keys, probe_keys = left_keys, right_keys

        build_phys, probe_phys, delivered = self._colocate(
            build_phys,
            build_dist,
            build_keys,
            probe_phys,
            probe_dist,
            probe_keys,
        )
        build_phys = self._maybe_param_dpe(
            build_phys, probe_phys, build_keys, probe_keys
        )
        join = phys.HashJoin(
            op.kind, build_phys, probe_phys, build_keys, probe_keys, residual
        )
        join.distribution = delivered
        return join, delivered

    def _ensure(
        self,
        node: phys.PhysicalOp,
        delivered: DistributionSpec,
        required: DistributionSpec,
    ) -> phys.PhysicalOp:
        if delivered.satisfies(required):
            return node
        if required.kind == DistributionSpec.REPLICATED:
            motion: phys.PhysicalOp = phys.BroadcastMotion(node)
        elif required.kind == DistributionSpec.SINGLETON:
            motion = phys.GatherMotion(node)
        else:
            motion = phys.RedistributeMotion(node, list(required.columns))
        motion.distribution = required
        return motion

    def _colocate(
        self,
        build: phys.PhysicalOp,
        build_dist: DistributionSpec,
        build_keys,
        probe: phys.PhysicalOp,
        probe_dist: DistributionSpec,
        probe_keys,
    ) -> tuple[phys.PhysicalOp, phys.PhysicalOp, DistributionSpec]:
        """Fixed heuristic: keep naturally co-located sides in place;
        otherwise redistribute hashable keys, else broadcast the build."""
        build_req = (
            DistributionSpec.hashed(build_keys)
            if all(isinstance(k, ColumnRef) for k in build_keys)
            else None
        )
        probe_req = (
            DistributionSpec.hashed(probe_keys)
            if all(isinstance(k, ColumnRef) for k in probe_keys)
            else None
        )
        if build_req is not None and probe_req is not None:
            new_build = self._ensure(build, build_dist, build_req)
            new_probe = self._ensure(probe, probe_dist, probe_req)
            delivered = (
                probe_req
                if probe_dist.kind != DistributionSpec.REPLICATED
                else build_req
            )
            return new_build, new_probe, delivered
        new_build = self._ensure(
            build, build_dist, DistributionSpec.replicated()
        )
        return new_build, probe, probe_dist

    def _try_partition_wise_join(
        self, op: LogicalJoin, left_keys, right_keys, residual
    ) -> tuple[phys.PhysicalOp, DistributionSpec] | None:
        """Oracle-style partition-wise join: both sides partitioned
        *identically* on the (single) equi-join key and hash-distributed on
        it, so each partition pair joins locally with no Motion and no
        cross-pair work.  Static pruning on either side drops the pair."""
        left_side = self._partitioned_side(op.left)
        right_side = self._partitioned_side(op.right)
        if left_side is None or right_side is None:
            return None
        (left_get, left_pred), (right_get, right_pred) = left_side, right_side
        left_scheme = left_get.table.partition_scheme
        right_scheme = right_get.table.partition_scheme
        assert left_scheme is not None and right_scheme is not None
        if not left_scheme.compatible_with(right_scheme):
            return None
        if left_scheme.num_levels != 1:
            return None
        # The single equi key pair must be partition key = partition key.
        matched = None
        for bk, pk in zip(left_keys, right_keys):
            if (
                isinstance(bk, ColumnRef)
                and isinstance(pk, ColumnRef)
                and bk.matches(ColumnRef(left_scheme.keys[0], left_get.alias))
                and pk.matches(ColumnRef(right_scheme.keys[0], right_get.alias))
            ):
                matched = (bk, pk)
                break
        if matched is None:
            return None
        # Co-location: both tables hash-distributed on the join key.
        for get in (left_get, right_get):
            dist = get.table.distribution
            if (
                dist.kind != DistributionPolicy.HASHED
                or dist.column != get.table.partition_scheme.keys[0]
            ):
                return None

        # Compatible schemes number their leaves alike: a pair survives
        # where both sides' leaf masks have its bit.
        left_table, right_table = left_get.table, right_get.table
        surviving = left_table.leaf_mask(
            self._statically_selected_oids(left_table, left_get.alias, left_pred)
        ) & right_table.leaf_mask(
            self._statically_selected_oids(right_table, right_get.alias, right_pred)
        )
        if not surviving:
            empty: phys.PhysicalOp = phys.EmptyScan(left_get.table, left_get.alias)
            dist = self._natural(left_get.table, left_get.alias)
            # layout must match the join output: synthesize via NLJoin of
            # two empty scans
            right_empty = phys.EmptyScan(right_get.table, right_get.alias)
            join: phys.PhysicalOp = phys.NLJoin(
                "inner", empty, right_empty, op.predicate
            )
            join.distribution = dist
            return join, dist
        pair_joins: list[phys.PhysicalOp] = []
        for left_oid, right_oid in zip(
            left_table.leaf_oids(surviving), right_table.leaf_oids(surviving)
        ):
            left_scan: phys.PhysicalOp = phys.LeafScan(
                left_table, left_get.alias, left_oid
            )
            if left_pred is not None:
                left_scan = phys.Filter(left_scan, left_pred)
            right_scan: phys.PhysicalOp = phys.LeafScan(
                right_table, right_get.alias, right_oid
            )
            if right_pred is not None:
                right_scan = phys.Filter(right_scan, right_pred)
            pair_joins.append(
                phys.HashJoin(
                    op.kind, left_scan, right_scan,
                    left_keys, right_keys, residual,
                )
            )
        delivered = DistributionSpec.hashed(
            [k for k in left_keys if isinstance(k, ColumnRef)][:1]
        )
        result = phys.Append(pair_joins)
        result.distribution = delivered
        return result, delivered

    def _partitioned_side(self, op: LogicalOp):
        """A (possibly filtered) Get over a partitioned table, or None."""
        if isinstance(op, LogicalGet):
            get, predicate = op, None
        elif isinstance(op, LogicalSelect) and isinstance(op.child, LogicalGet):
            get, predicate = op.child, op.predicate
        else:
            return None
        if not get.table.is_partitioned:
            return None
        return get, predicate

    def _maybe_param_dpe(
        self,
        build: phys.PhysicalOp,
        probe: phys.PhysicalOp,
        build_keys,
        probe_keys,
    ) -> phys.PhysicalOp:
        """Planner's rudimentary dynamic elimination: when the probe side is
        an Append over a single-level partitioned table joined by equality
        on its partition key (with no Motion in between), compute the OID
        set at run time from the build stream and guard each listed leaf."""
        if not self.enable_param_dpe:
            return build
        append = probe
        if isinstance(append, phys.Filter):
            append = append.children[0]
        if not isinstance(append, phys.Append):
            return build
        leaf_scans = [
            child
            for child in append.children
            if isinstance(child, phys.LeafScan)
        ]
        if len(leaf_scans) != len(append.children) or not leaf_scans:
            return build
        table = leaf_scans[0].table
        scheme = table.partition_scheme
        if scheme is None or scheme.num_levels != 1:
            return build
        if any(scan.guard_scan_id is not None for scan in leaf_scans):
            return build
        alias = leaf_scans[0].alias
        part_key = ColumnRef(scheme.keys[0], alias)
        join_pred = None
        for build_key, probe_key in zip(build_keys, probe_keys):
            if isinstance(probe_key, ColumnRef) and probe_key.matches(part_key):
                from ..expr.ast import Comparison

                join_pred = Comparison("=", part_key, build_key)
                break
        if join_pred is None:
            return build
        guard_id = self._next_guard_id
        self._next_guard_id += 1
        for scan in leaf_scans:
            scan.guard_scan_id = guard_id
        spec = PartSelectorSpec(guard_id, table, [part_key], [join_pred])
        selector = phys.PartitionSelector(spec, build)
        selector.distribution = build.distribution
        return selector

    # -- aggregation -----------------------------------------------------------------

    def _translate_group_by(
        self, op: LogicalGroupBy
    ) -> tuple[phys.PhysicalOp, DistributionSpec]:
        child, dist = self._translate(op.child)
        if op.group_keys:
            required = DistributionSpec.hashed(list(op.group_keys))
            child = self._ensure(child, dist, required)
            agg = phys.HashAgg(child, op.group_keys, op.aggregates)
            agg.distribution = required
            return agg, required
        child = self._ensure(child, dist, DistributionSpec.singleton())
        agg = phys.HashAgg(child, (), op.aggregates)
        agg.distribution = DistributionSpec.singleton()
        return agg, DistributionSpec.singleton()

    # -- DML -------------------------------------------------------------------------

    def _translate_update(
        self, op: LogicalUpdate
    ) -> tuple[phys.PhysicalOp, DistributionSpec]:
        child = self._translate_update_source(op.child)
        child = self._ensure(
            child, DistributionSpec.any(), DistributionSpec.singleton()
        )
        update = phys.Update(child, op.target, op.target_alias, op.assignments)
        update.distribution = DistributionSpec.singleton()
        return update, DistributionSpec.singleton()

    def _translate_delete(
        self, op: LogicalDelete
    ) -> tuple[phys.PhysicalOp, DistributionSpec]:
        child = self._translate_update_source(op.child)
        child = self._ensure(
            child, DistributionSpec.any(), DistributionSpec.singleton()
        )
        delete = phys.Delete(child, op.target, op.target_alias)
        delete.distribution = DistributionSpec.singleton()
        return delete, DistributionSpec.singleton()

    def _translate_update_source(self, op: LogicalOp) -> phys.PhysicalOp:
        """The paper's quadratic case: a join of two partitioned tables
        under DML is expanded into every partition-pair join."""
        if isinstance(op, LogicalJoin) and op.kind == "inner":
            left_parts = self._partition_branches(op.left)
            right_parts = self._partition_branches(op.right)
            if (
                left_parts is not None
                and right_parts is not None
                and (len(left_parts) > 1 or len(right_parts) > 1)
            ):
                left_layout = op.left.output_layout()
                right_layout = op.right.output_layout()
                left_keys, right_keys, residual = split_equijoin(
                    op.predicate, left_layout, right_layout
                )
                joins: list[phys.PhysicalOp] = []
                for left_branch in left_parts:
                    for right_branch in right_parts:
                        right_side = phys.BroadcastMotion(
                            _clone(right_branch)
                        )
                        if left_keys:
                            joins.append(
                                phys.HashJoin(
                                    "inner",
                                    _clone(left_branch),
                                    right_side,
                                    left_keys,
                                    right_keys,
                                    residual,
                                )
                            )
                        else:
                            joins.append(
                                phys.NLJoin(
                                    "inner",
                                    _clone(left_branch),
                                    right_side,
                                    op.predicate,
                                )
                            )
                return phys.Append(joins)
        node, _ = self._translate(op)
        return node

    def _partition_branches(
        self, op: LogicalOp
    ) -> list[phys.PhysicalOp] | None:
        """Per-partition scan branches for a (possibly filtered) Get."""
        if isinstance(op, LogicalGet):
            get, predicate = op, None
        elif isinstance(op, LogicalSelect) and isinstance(
            op.child, LogicalGet
        ):
            get, predicate = op.child, op.predicate
        else:
            return None
        table = get.table
        if not table.is_partitioned:
            scan: phys.PhysicalOp = phys.Scan(table, get.alias)
            if predicate is not None:
                scan = phys.Filter(scan, predicate)
            return [scan]
        oids = self._statically_selected_oids(table, get.alias, predicate)
        if not oids:
            return [phys.EmptyScan(table, get.alias)]
        branches: list[phys.PhysicalOp] = []
        for oid in oids:
            leaf: phys.PhysicalOp = phys.LeafScan(table, get.alias, oid)
            if predicate is not None:
                leaf = phys.Filter(leaf, predicate)
            branches.append(leaf)
        return branches


def _clone(op: phys.PhysicalOp) -> phys.PhysicalOp:
    """Deep-copy a plan branch so repeated uses stay independent."""
    return op.with_children([_clone(child) for child in op.children])
