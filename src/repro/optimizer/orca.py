"""The Orca-style Cascades optimizer with partition-selection enforcement.

This module reproduces Section 3.1 of the paper: optimization requests are
``(distribution, partition propagation)`` property pairs submitted to Memo
groups; a group satisfies a request either through one of its physical
group expressions (which translate the request into child requests — the
in-Memo analogue of the placement Algorithms 2–4) or through an **enforcer**:

* Motion enforcers (Gather / Redistribute / Broadcast) deliver a required
  distribution.  A Motion may not carry a partition-propagation request for
  a *producer-side* spec (one whose consumer lies outside the subtree), and
  may never appear inside a co-location region — this is how the Figure 12
  validity rule ("no Motion between PartitionSelector, DynamicScan and
  their lowest common ancestor") is expressed in the request calculus.
* The PartitionSelector enforcer resolves a producer-side spec on top of
  any plan (the paper's "PartitionSelector is the enforcer of the partition
  selection property"), e.g. Plan 4 of Figure 14:
  ``PartitionSelector over Replicate over Scan(S)``.
* At a DynamicScan's own group, a spec resolves as the *scan unit*
  ``PartitionSelector → DynamicScan`` (the static pattern of Figure 5),
  costed with the **exact** partition fraction for constant predicates.

Join group expressions perform the dynamic-elimination routing of
Algorithm 4: a spec whose consumer sits on the probe side and whose key is
constrained by the join predicate is re-routed — augmented with that
predicate — to the build side, and the probe side is marked co-located so
no Motion can separate the consumer from the join.
"""

from __future__ import annotations

import time

from ..catalog import Catalog, DistributionPolicy, TableDescriptor
from ..errors import OptimizerError
from ..obs import opt_events
from ..obs import trace as obs_trace
from ..expr.analysis import (
    conj,
    derive_interval_set,
    find_preds_on_keys,
)
from ..expr.ast import ColumnRef, Comparison, Expression
from ..logical.ops import LogicalOp
from ..physical import ops as phys
from ..physical.plan import Plan
from ..physical.properties import (
    DistributionSpec,
    PartitionPropagationSpec,
    PartSelectorSpec,
)
from .cost import CostModel, INFINITE
from .memo import Group, GroupExpression, Memo
from .requests import BestInfo, OptimizationRequest
from .rules import explore, implement
from .stats import StatsRegistry


class OrcaOptimizer:
    """Cascades-style optimizer for the MPP engine.

    ``enable_partition_elimination=False`` keeps the DynamicScan machinery
    but never attaches predicates to PartitionSelectors, so every scan
    touches all partitions — the "partition selection disabled"
    configuration of the paper's Figure 17 experiment.
    ``enable_join_dpe=False`` disables only the join-driven (dynamic)
    routing, leaving static elimination intact (an ablation knob).
    """

    def __init__(
        self,
        catalog: Catalog,
        stats: StatsRegistry,
        cost_model: CostModel | None = None,
        num_segments: int = 4,
        enable_partition_elimination: bool = True,
        enable_join_dpe: bool = True,
        enable_two_stage_agg: bool = True,
        enable_top_n: bool = True,
    ):
        self.catalog = catalog
        self.stats = stats
        self.cost_model = cost_model or CostModel()
        self.num_segments = num_segments
        self.enable_partition_elimination = enable_partition_elimination
        self.enable_join_dpe = enable_join_dpe
        self.enable_two_stage_agg = enable_two_stage_agg
        self.enable_top_n = enable_top_n
        self.memo: Memo | None = None

    # -- public API --------------------------------------------------------

    def optimize(
        self, logical_root: LogicalOp, parameter_count: int = 0
    ) -> Plan:
        log = opt_events.log()
        started = time.perf_counter() if log is not None else 0.0
        memo = Memo(self.stats)
        root_gid = memo.copy_in(logical_root)
        explore(memo)
        implement(memo)
        self.memo = memo

        root_group = memo.group(root_gid)
        specs = PartitionPropagationSpec(root_group.consumer_specs.values())
        request = OptimizationRequest(DistributionSpec.singleton(), specs)
        best = self._optimize_group(root_gid, request)
        if best is None or best.cost == INFINITE:
            raise OptimizerError("no valid plan found for query")
        # Extraction is where enforcer decisions materialise into the tree —
        # the in-Memo analogue of the paper's PlacePartSelectors pass.
        with obs_trace.span("place_partition_selectors"):
            root_op = self._extract(root_gid, request)
        plan = Plan(root_op, parameter_count)
        if log is not None:
            log.set_optimization_seconds(time.perf_counter() - started)
        return plan

    # -- group optimization ----------------------------------------------------

    def _optimize_group(
        self, gid: int, request: OptimizationRequest
    ) -> BestInfo | None:
        assert self.memo is not None
        group = self.memo.group(gid)
        if request in group.best:
            return group.best[request]
        if request in group._in_progress:
            return None
        group._in_progress.add(request)
        log = opt_events.log()
        if log is not None:
            log.property_request(gid, repr(request))
        try:
            candidates: list[BestInfo] = []
            for gexpr in group.physical_exprs():
                candidates.extend(
                    self._gexpr_candidates(group, gexpr, request)
                )
            candidates.extend(self._enforcer_candidates(gid, group, request))
            best = None
            for candidate in candidates:
                if best is None or candidate.cost < best.cost:
                    best = candidate
            group.best[request] = best
            if log is not None and best is not None:
                log.winner_costed(
                    gid,
                    repr(request),
                    best.cost,
                    best.kind,
                    len(candidates) - 1,
                )
            return best
        finally:
            group._in_progress.discard(request)

    # -- enforcers ------------------------------------------------------------

    def _enforcer_candidates(
        self, gid: int, group: Group, request: OptimizationRequest
    ) -> list[BestInfo]:
        model = self.cost_model
        rows = group.estimate.rows
        candidates: list[BestInfo] = []
        log = opt_events.log()

        # Motion enforcers: only when no co-location constraint applies and
        # every pending spec's consumer is inside this subtree (otherwise
        # the Motion would separate producer from consumer — Figure 12).
        motion_ok = (
            request.dist.kind != DistributionSpec.ANY
            and not request.colocated
            and all(
                spec.part_scan_id in group.consumer_ids
                for spec in request.props
            )
        )
        if motion_ok:
            child_request = request.with_dist(DistributionSpec.any())
            child = self._optimize_group(gid, child_request)
            if child is not None:
                kind = request.dist.kind
                if kind == DistributionSpec.SINGLETON:
                    cost = child.cost + rows * model.gather_row
                elif kind == DistributionSpec.REPLICATED:
                    cost = child.cost + rows * self.num_segments * model.motion_row
                else:
                    cost = child.cost + rows * model.motion_row
                if not child.delivered.satisfies(request.dist):
                    if log is not None:
                        log.enforcer_added(opt_events.MOTION, gid, kind)
                    candidates.append(
                        BestInfo(
                            BestInfo.MOTION,
                            cost,
                            request.dist,
                            motion_kind=kind,
                            motion_exprs=request.dist.columns,
                            child_request=child_request,
                        )
                    )

        # PartitionSelector enforcer: resolves producer-side specs (consumer
        # outside this subtree) on top of the group's plan.
        for spec in request.props:
            if spec.part_scan_id in group.consumer_ids:
                continue
            child_request = request.with_props(request.props.remove(spec))
            child = self._optimize_group(gid, child_request)
            if child is None:
                continue
            cost = (
                child.cost
                + rows * model.selector_tuple
                + model.selector_setup
            )
            if log is not None:
                log.enforcer_added(
                    opt_events.PARTITION_SELECTOR,
                    gid,
                    f"part_scan {spec.part_scan_id}",
                    placement="on_top",
                )
            candidates.append(
                BestInfo(
                    BestInfo.SELECTOR,
                    cost,
                    child.delivered,
                    selector_spec=spec,
                    child_request=child_request,
                )
            )
        return candidates

    # -- group expression candidates -----------------------------------------

    def _gexpr_candidates(
        self, group: Group, gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        op = gexpr.op
        if isinstance(op, phys.Scan):
            return self._scan_candidates(group, gexpr, request)
        if isinstance(op, phys.DynamicScan):
            return self._dynamic_scan_candidates(group, gexpr, request)
        if isinstance(op, (phys.Filter, phys.Project)):
            return self._unary_passthrough_candidates(group, gexpr, request)
        if isinstance(op, phys.HashJoin):
            return self._hash_join_candidates(group, gexpr, request)
        if isinstance(op, phys.NLJoin):
            return self._nl_join_candidates(group, gexpr, request)
        if isinstance(op, phys.HashAgg):
            return self._agg_candidates(group, gexpr, request)
        if isinstance(op, (phys.Sort, phys.Limit, phys.Update, phys.Delete)):
            return self._singleton_unary_candidates(group, gexpr, request)
        raise OptimizerError(f"no candidate generator for {type(op).__name__}")

    def _natural_distribution(
        self, table: TableDescriptor, alias: str
    ) -> DistributionSpec:
        policy = table.distribution
        if policy.kind == DistributionPolicy.REPLICATED:
            return DistributionSpec.replicated()
        return DistributionSpec.hashed([ColumnRef(policy.column, alias)])

    def _scan_candidates(
        self, group: Group, gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        if not request.props.is_empty:
            return []
        op = gexpr.op
        delivered = self._natural_distribution(op.table, op.alias)
        if not delivered.satisfies(request.dist):
            return []
        cost = group.estimate.rows * self.cost_model.scan_row
        return [BestInfo(BestInfo.GEXPR, cost, delivered, gexpr)]

    def _dynamic_scan_candidates(
        self, group: Group, gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        op = gexpr.op
        own_specs = [
            s for s in request.props if s.part_scan_id == op.part_scan_id
        ]
        foreign = [
            s for s in request.props if s.part_scan_id != op.part_scan_id
        ]
        if foreign:
            return []
        delivered = self._natural_distribution(op.table, op.alias)
        if not delivered.satisfies(request.dist):
            return []
        model = self.cost_model
        rows = group.estimate.rows
        leaves = op.table.num_leaves
        if not own_specs:
            # Producer placed elsewhere (join DPE) — full nominal cost; the
            # join applies the elimination discount.
            cost = rows * model.scan_row + leaves * model.partition_open
            return [BestInfo(BestInfo.GEXPR, cost, delivered, gexpr)]
        spec = own_specs[0]
        fraction, selected = self._static_fraction(spec)
        cost = (
            rows * fraction * model.scan_row
            + selected * model.partition_open
            + model.selector_setup
        )
        log = opt_events.log()
        if log is not None:
            log.enforcer_added(
                opt_events.PARTITION_SELECTOR,
                group.id,
                f"part_scan {spec.part_scan_id}, {selected}/{leaves} leaves",
                placement="scan_unit",
            )
        return [
            BestInfo(
                BestInfo.SCAN_UNIT,
                cost,
                delivered,
                gexpr=gexpr,
                selector_spec=spec,
            )
        ]

    def _static_fraction(self, spec: PartSelectorSpec) -> tuple[float, int]:
        """Exact fraction of leaf partitions selected by the spec's
        constant predicates (join-form parts contribute no restriction at
        costing time)."""
        scheme = spec.table.partition_scheme
        assert scheme is not None
        predicates = {}
        for key, predicate in zip(spec.part_keys, spec.part_predicates):
            if predicate is None:
                continue
            derived = derive_interval_set(
                predicate,
                key,
                best_effort=True,
                key_type=spec.table.schema.column(key.name).data_type,
            )
            if derived is not None:
                predicates[key.name] = derived
        selected = len(scheme.select(predicates))
        total = max(1, scheme.num_leaves)
        return selected / total, selected

    def _unary_passthrough_candidates(
        self, group: Group, gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        assert self.memo is not None
        op = gexpr.op
        child_gid = gexpr.child_groups[0]
        child_group = self.memo.group(child_gid)

        routed = PartitionPropagationSpec.none()
        for spec in request.props:
            if spec.part_scan_id not in child_group.consumer_ids:
                return []
            routed = routed.add(self._augment_through_filter(op, spec))

        dist = request.dist
        if isinstance(op, phys.Project) and dist.kind == DistributionSpec.HASHED:
            translated = self._translate_through_project(op, dist)
            if translated is None:
                return []
            dist = translated

        child_request = OptimizationRequest(dist, routed, request.colocated)
        child = self._optimize_group(child_gid, child_request)
        if child is None:
            return []
        model = self.cost_model
        child_rows = child_group.estimate.rows
        if isinstance(op, phys.Filter):
            cost = child.cost + child_rows * model.filter_row
        else:
            cost = child.cost + child_rows * model.project_row
        delivered = child.delivered
        if (
            isinstance(op, phys.Project)
            and dist is not request.dist
            and request.dist.kind == DistributionSpec.HASHED
        ):
            delivered = request.dist
        return [
            BestInfo(
                BestInfo.GEXPR, cost, delivered, gexpr, [child_request]
            )
        ]

    def _augment_through_filter(
        self, op, spec: PartSelectorSpec
    ) -> PartSelectorSpec:
        """Algorithm 3 in the Memo: extend the spec with partition-filtering
        predicates found in a Filter's predicate."""
        if not isinstance(op, phys.Filter) or not self.enable_partition_elimination:
            return spec
        key_preds = find_preds_on_keys(op.predicate, spec.part_keys)
        if all(p is None for p in key_preds):
            return spec
        merged = [
            conj([extracted, existing])
            for extracted, existing in zip(key_preds, spec.part_predicates)
        ]
        return spec.with_predicates(merged)

    def _translate_through_project(
        self, op: phys.Project, dist: DistributionSpec
    ) -> DistributionSpec | None:
        """Rewrite a hashed requirement on Project output columns into one
        on its input columns, when every key is a plain passthrough."""
        mapping: dict[str, Expression] = {
            name: expr for expr, name in op.items
        }
        translated: list[ColumnRef] = []
        for col in dist.columns:
            source = mapping.get(col.name)
            if not isinstance(source, ColumnRef):
                return None
            translated.append(source)
        return DistributionSpec.hashed(translated)

    # -- joins ---------------------------------------------------------------------

    def _route_join_props(
        self,
        request: OptimizationRequest,
        first: Group,
        second: Group,
        join_predicate: Expression | None,
        dpe_allowed: bool,
    ):
        """Algorithm 4 in the Memo.  ``first`` executes before ``second``.

        Returns ``(props_first, props_second, coloc_first, coloc_second,
        dpe_tables)`` or ``None`` when a spec cannot be routed.
        ``dpe_tables`` lists the tables whose scans (in ``second``) receive
        join-driven elimination, for cost discounting.
        """
        props_first = PartitionPropagationSpec.none()
        props_second = PartitionPropagationSpec.none()
        coloc_first: set[int] = set()
        coloc_second: set[int] = set()
        dpe_tables: list[TableDescriptor] = []

        for scan_id in request.colocated:
            if scan_id in first.consumer_ids:
                coloc_first.add(scan_id)
            elif scan_id in second.consumer_ids:
                coloc_second.add(scan_id)
            else:
                return None

        for spec in request.props:
            if spec.part_scan_id in first.consumer_ids:
                props_first = props_first.add(spec)
                continue
            if spec.part_scan_id not in second.consumer_ids:
                return None
            if dpe_allowed:
                key_preds = find_preds_on_keys(join_predicate, spec.part_keys)
                if any(p is not None for p in key_preds):
                    merged = [
                        conj([extracted, existing])
                        for extracted, existing in zip(
                            key_preds, spec.part_predicates
                        )
                    ]
                    props_first = props_first.add(
                        spec.with_predicates(merged)
                    )
                    coloc_second.add(spec.part_scan_id)
                    dpe_tables.append(spec.table)
                    continue
            props_second = props_second.add(spec)
        return (
            props_first,
            props_second,
            frozenset(coloc_first),
            frozenset(coloc_second),
            dpe_tables,
        )

    def _dpe_discount(self, tables: list[TableDescriptor]) -> float:
        """Cost removed from the consumer side when join-driven elimination
        applies: (1 - assumed surviving fraction) of each table's scan."""
        model = self.cost_model
        discount = 0.0
        for table in tables:
            stats = self.stats.get(table)
            full = (
                stats.row_count * model.scan_row
                + table.num_leaves * model.partition_open
            )
            discount += (1.0 - model.dpe_fraction) * full
        return discount

    def _hash_join_candidates(
        self, group: Group, gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        assert self.memo is not None
        op = gexpr.op
        build_group = self.memo.group(gexpr.child_groups[0])
        probe_group = self.memo.group(gexpr.child_groups[1])
        predicate = conj(
            [
                Comparison("=", b, p)
                for b, p in zip(op.build_keys, op.probe_keys)
            ]
            + ([op.residual] if op.residual is not None else [])
        )
        dpe_allowed = (
            self.enable_partition_elimination and self.enable_join_dpe
        )
        routed = self._route_join_props(
            request, build_group, probe_group, predicate, dpe_allowed
        )
        candidates: list[BestInfo] = []
        routings = [routed] if routed is not None else []
        if dpe_allowed and routed is not None and routed[4]:
            # Also keep the non-DPE routing as an alternative.
            plain = self._route_join_props(
                request, build_group, probe_group, predicate, False
            )
            if plain is not None:
                routings.append(plain)
        for routing in routings:
            candidates.extend(
                self._hash_join_with_routing(
                    group, gexpr, request, routing
                )
            )
        return candidates

    def _hash_join_with_routing(
        self, group, gexpr, request, routing
    ) -> list[BestInfo]:
        assert self.memo is not None
        op = gexpr.op
        model = self.cost_model
        build_gid, probe_gid = gexpr.child_groups
        build_group = self.memo.group(build_gid)
        probe_group = self.memo.group(probe_gid)
        props_b, props_p, coloc_b, coloc_p, dpe_tables = routing
        discount = self._dpe_discount(dpe_tables)

        keys_hashable = all(
            isinstance(k, ColumnRef) for k in op.build_keys
        ) and all(isinstance(k, ColumnRef) for k in op.probe_keys)

        alternatives: list[tuple[DistributionSpec, DistributionSpec, str]] = []
        if keys_hashable:
            alternatives.append(
                (
                    DistributionSpec.hashed(op.build_keys),
                    DistributionSpec.hashed(op.probe_keys),
                    "probe",
                )
            )
        alternatives.append(
            (DistributionSpec.replicated(), DistributionSpec.any(), "probe")
        )
        if op.kind == "inner":
            alternatives.append(
                (DistributionSpec.any(), DistributionSpec.replicated(), "build")
            )

        build_rows = build_group.estimate.rows
        probe_rows = probe_group.estimate.rows
        out_rows = group.estimate.rows
        candidates: list[BestInfo] = []
        for build_dist, probe_dist, delivered_from in alternatives:
            build_request = OptimizationRequest(build_dist, props_b, coloc_b)
            probe_request = OptimizationRequest(probe_dist, props_p, coloc_p)
            build = self._optimize_group(build_gid, build_request)
            if build is None:
                continue
            probe = self._optimize_group(probe_gid, probe_request)
            if probe is None:
                continue
            if delivered_from == "probe":
                if probe_dist.kind == DistributionSpec.HASHED:
                    delivered = probe_dist
                else:
                    delivered = probe.delivered
            else:
                delivered = build.delivered
            if not delivered.satisfies(request.dist):
                continue
            probe_cost = max(
                probe.cost - discount, probe.cost * 0.01
            )
            cost = (
                build.cost
                + probe_cost
                + build_rows * model.hash_build_row
                + probe_rows * model.hash_probe_row
                + out_rows * model.output_row
            )
            candidates.append(
                BestInfo(
                    BestInfo.GEXPR,
                    cost,
                    delivered,
                    gexpr,
                    [build_request, probe_request],
                )
            )
        return candidates

    def _nl_join_candidates(
        self, group: Group, gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        assert self.memo is not None
        op = gexpr.op
        model = self.cost_model
        outer_gid, inner_gid = gexpr.child_groups
        outer_group = self.memo.group(outer_gid)
        inner_group = self.memo.group(inner_gid)
        dpe_allowed = (
            self.enable_partition_elimination and self.enable_join_dpe
        )
        routed = self._route_join_props(
            request, outer_group, inner_group, op.predicate, dpe_allowed
        )
        if routed is None:
            return []
        props_o, props_i, coloc_o, coloc_i, dpe_tables = routed
        discount = self._dpe_discount(dpe_tables)
        outer_rows = outer_group.estimate.rows
        inner_rows = inner_group.estimate.rows
        out_rows = group.estimate.rows

        alternatives = [
            (DistributionSpec.any(), DistributionSpec.replicated(), "outer"),
            (
                DistributionSpec.singleton(),
                DistributionSpec.singleton(),
                "singleton",
            ),
        ]
        candidates: list[BestInfo] = []
        for outer_dist, inner_dist, delivered_from in alternatives:
            outer_request = OptimizationRequest(outer_dist, props_o, coloc_o)
            inner_request = OptimizationRequest(inner_dist, props_i, coloc_i)
            outer = self._optimize_group(outer_gid, outer_request)
            if outer is None:
                continue
            inner = self._optimize_group(inner_gid, inner_request)
            if inner is None:
                continue
            delivered = (
                outer.delivered
                if delivered_from == "outer"
                else DistributionSpec.singleton()
            )
            if not delivered.satisfies(request.dist):
                continue
            inner_cost = max(inner.cost - discount, inner.cost * 0.01)
            cost = (
                outer.cost
                + inner_cost
                + outer_rows * inner_rows * model.nl_pair
                + out_rows * model.output_row
            )
            candidates.append(
                BestInfo(
                    BestInfo.GEXPR,
                    cost,
                    delivered,
                    gexpr,
                    [outer_request, inner_request],
                )
            )
        return candidates

    # -- aggregation / ordering / DML ---------------------------------------------

    def _agg_candidates(
        self, group: Group, gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        assert self.memo is not None
        op = gexpr.op
        child_gid = gexpr.child_groups[0]
        child_group = self.memo.group(child_gid)
        for spec in request.props:
            if spec.part_scan_id not in child_group.consumer_ids:
                return []
        model = self.cost_model
        child_rows = child_group.estimate.rows
        alternatives: list[DistributionSpec] = [DistributionSpec.singleton()]
        if op.group_keys:
            alternatives.insert(
                0, DistributionSpec.hashed(list(op.group_keys))
            )
        candidates: list[BestInfo] = []
        for child_dist in alternatives:
            child_request = OptimizationRequest(
                child_dist, request.props, request.colocated
            )
            child = self._optimize_group(child_gid, child_request)
            if child is None:
                continue
            delivered = (
                child_dist
                if child_dist.kind != DistributionSpec.ANY
                else child.delivered
            )
            if not delivered.satisfies(request.dist):
                continue
            cost = child.cost + child_rows * model.agg_row
            candidates.append(
                BestInfo(
                    BestInfo.GEXPR, cost, delivered, gexpr, [child_request]
                )
            )
        candidates.extend(
            self._two_stage_agg_candidates(group, gexpr, request)
        )
        return candidates

    def _two_stage_agg_candidates(
        self, group: Group, gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        """Two-stage aggregation: a partial HashAgg on each segment, a
        Motion carrying the (much smaller) transition rows, and a final
        combining HashAgg.  Classic MPP plan shape; invalid inside a
        co-location region because of the Motion between the stages.
        """
        if request.colocated or not self.enable_two_stage_agg:
            return []
        assert self.memo is not None
        op = gexpr.op
        child_gid = gexpr.child_groups[0]
        child_group = self.memo.group(child_gid)
        child_request = OptimizationRequest(
            DistributionSpec.any(), request.props, frozenset()
        )
        child = self._optimize_group(child_gid, child_request)
        if child is None:
            return []
        if op.group_keys:
            delivered = DistributionSpec.hashed(list(op.group_keys))
            motion_kind = DistributionSpec.HASHED
        else:
            delivered = DistributionSpec.singleton()
            motion_kind = DistributionSpec.SINGLETON
        if not delivered.satisfies(request.dist):
            return []
        model = self.cost_model
        child_rows = child_group.estimate.rows
        # each segment emits at most one transition row per group
        partial_rows = min(
            child_rows, group.estimate.rows * self.num_segments
        )
        cost = (
            child.cost
            + child_rows * model.agg_row
            + partial_rows * model.motion_row
            + partial_rows * model.agg_row
        )
        return [
            BestInfo(
                BestInfo.TWO_STAGE_AGG,
                cost,
                delivered,
                gexpr,
                [child_request],
                motion_kind=motion_kind,
                motion_exprs=tuple(op.group_keys),
            )
        ]

    def _singleton_unary_candidates(
        self, group: Group, gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        assert self.memo is not None
        op = gexpr.op
        child_gid = gexpr.child_groups[0]
        child_group = self.memo.group(child_gid)
        for spec in request.props:
            if spec.part_scan_id not in child_group.consumer_ids:
                return []
        delivered = DistributionSpec.singleton()
        if not delivered.satisfies(request.dist):
            return []
        child_request = OptimizationRequest(
            DistributionSpec.singleton(), request.props, request.colocated
        )
        child = self._optimize_group(child_gid, child_request)
        if child is None:
            return []
        model = self.cost_model
        child_rows = child_group.estimate.rows
        if isinstance(op, phys.Sort):
            cost = child.cost + model.sort_cost(child_rows)
        elif isinstance(op, phys.Limit):
            cost = child.cost + min(child_rows, op.count) * model.output_row
        else:  # Update / Delete
            cost = child.cost + child_rows * model.update_row
        candidates = [
            BestInfo(BestInfo.GEXPR, cost, delivered, gexpr, [child_request])
        ]
        if isinstance(op, phys.Limit):
            candidates.extend(self._top_n_candidates(gexpr, request))
        return candidates

    def _top_n_candidates(
        self, limit_gexpr: GroupExpression, request: OptimizationRequest
    ) -> list[BestInfo]:
        """Distributed top-N: when Limit sits over Sort, each segment sorts
        and limits locally so the Gather moves only ``n × segments`` rows;
        a final Sort+Limit merges on the coordinator."""
        if request.colocated or not self.enable_top_n:
            return []
        assert self.memo is not None
        limit_op = limit_gexpr.op
        sort_group = self.memo.group(limit_gexpr.child_groups[0])
        sort_gexprs = [
            ge
            for ge in sort_group.physical_exprs()
            if isinstance(ge.op, phys.Sort)
        ]
        if not sort_gexprs:
            return []
        if not DistributionSpec.singleton().satisfies(request.dist):
            return []
        model = self.cost_model
        candidates: list[BestInfo] = []
        for sort_gexpr in sort_gexprs:
            data_gid = sort_gexpr.child_groups[0]
            data_group = self.memo.group(data_gid)
            if any(
                spec.part_scan_id not in data_group.consumer_ids
                for spec in request.props
            ):
                continue
            data_request = OptimizationRequest(
                DistributionSpec.any(), request.props, frozenset()
            )
            data = self._optimize_group(data_gid, data_request)
            if data is None:
                continue
            data_rows = data_group.estimate.rows
            moved = min(data_rows, limit_op.count * self.num_segments)
            cost = (
                data.cost
                + model.sort_cost(data_rows)  # per-segment sorts
                + moved * model.gather_row
                + model.sort_cost(moved)  # coordinator merge
                + limit_op.count * model.output_row
            )
            candidates.append(
                BestInfo(
                    BestInfo.TOP_N,
                    cost,
                    DistributionSpec.singleton(),
                    limit_gexpr,
                    [data_request],
                    extra={
                        "sort_keys": sort_gexpr.op.keys,
                        "data_gid": data_gid,
                    },
                )
            )
        return candidates

    # -- plan extraction ---------------------------------------------------------

    def _extract(self, gid: int, request: OptimizationRequest) -> phys.PhysicalOp:
        node = self._extract_node(gid, request)
        if node.estimated_rows is None:
            assert self.memo is not None
            node.estimated_rows = self.memo.group(gid).estimate.rows
        return node

    def _extract_node(
        self, gid: int, request: OptimizationRequest
    ) -> phys.PhysicalOp:
        assert self.memo is not None
        group = self.memo.group(gid)
        best = group.best.get(request)
        if best is None:
            raise OptimizerError(
                f"no best plan recorded for group {gid} request {request!r}"
            )
        if best.kind == BestInfo.MOTION:
            child = self._extract(gid, best.child_request)
            if best.motion_kind == DistributionSpec.SINGLETON:
                node: phys.PhysicalOp = phys.GatherMotion(child)
            elif best.motion_kind == DistributionSpec.REPLICATED:
                node = phys.BroadcastMotion(child)
            else:
                node = phys.RedistributeMotion(child, list(best.motion_exprs))
            node.distribution = best.delivered
            return node
        if best.kind == BestInfo.SELECTOR:
            child = self._extract(gid, best.child_request)
            node = phys.PartitionSelector(best.selector_spec, child)
            node.distribution = best.delivered
            return node
        if best.kind == BestInfo.TWO_STAGE_AGG:
            assert best.gexpr is not None
            child = self._extract(
                best.gexpr.child_groups[0], best.child_requests[0]
            )
            op = best.gexpr.op
            partial = phys.HashAgg(
                child, op.group_keys, op.aggregates, mode="partial"
            )
            if best.motion_kind == DistributionSpec.SINGLETON:
                motion: phys.PhysicalOp = phys.GatherMotion(partial)
            else:
                motion = phys.RedistributeMotion(
                    partial, list(best.motion_exprs)
                )
            motion.distribution = best.delivered
            final = phys.HashAgg(
                motion, op.group_keys, op.aggregates, mode="final"
            )
            final.distribution = best.delivered
            return final
        if best.kind == BestInfo.TOP_N:
            assert best.gexpr is not None
            data = self._extract(
                best.extra["data_gid"], best.child_requests[0]
            )
            keys = best.extra["sort_keys"]
            count = best.gexpr.op.count
            local = phys.Limit(phys.Sort(data, keys), count)
            gather = phys.GatherMotion(local)
            gather.distribution = best.delivered
            node = phys.Limit(phys.Sort(gather, keys), count)
            node.distribution = best.delivered
            return node
        if best.kind == BestInfo.SCAN_UNIT:
            assert best.gexpr is not None
            scan_template = best.gexpr.op
            scan = phys.DynamicScan(
                scan_template.table,
                scan_template.alias,
                scan_template.part_scan_id,
            )
            scan.distribution = best.delivered
            spec = best.selector_spec
            assert spec is not None
            if not self.enable_partition_elimination:
                spec = spec.with_predicates([None] * len(spec.part_keys))
            node = phys.PartitionSelector(spec, scan)
            node.distribution = best.delivered
            return node
        assert best.gexpr is not None
        children = [
            self._extract(child_gid, child_request)
            for child_gid, child_request in zip(
                best.gexpr.child_groups, best.child_requests
            )
        ]
        node = best.gexpr.op.with_children(children)
        node.distribution = best.delivered
        return node
