"""Time Constrained Modulo Scheduling with Global Resource Sharing.

A reproduction of Jäschke, Beckmann & Laur (DATE 1999): high-level
synthesis scheduling that statically shares functional-unit instances
across *independent processes* through periodic access authorizations,
implemented as a two-part modification of Improved Force-Directed
Scheduling.

Typical use::

    from repro import ModuloSystemScheduler
    from repro.workloads import paper_system, paper_assignment, paper_periods

    system, library = paper_system()
    scheduler = ModuloSystemScheduler(library)
    result = scheduler.schedule(system, paper_assignment(library), paper_periods())
    print(result.summary())

Subpackages: :mod:`repro.ir` (dataflow graphs, processes),
:mod:`repro.resources` (unit types, libraries, scope assignment),
:mod:`repro.scheduling` (frames, FDS, IFDS, list scheduling),
:mod:`repro.core` (modulo scheduling itself), :mod:`repro.binding`
(instances, authorizations), :mod:`repro.sim` (dynamic validation),
:mod:`repro.workloads` and :mod:`repro.analysis` (evaluation),
:mod:`repro.obs` (tracing, counters, logging, profiling).

Package exports resolve on first access (:mod:`repro._lazy`): ``import
repro`` loads no subpackage, and ``repro.ModuloSystemScheduler`` imports
only the modules that define it.
"""

from ._lazy import attach

_EXPORTS = {
    "analysis.bounds": ["bound_report"],
    "analysis.compare": ["Comparison", "compare_scopes"],
    "analysis.tables": ["table1"],
    "api": ["Problem", "load_problem", "loads_problem"],
    "binding.authorization": ["AccessAuthorizationTable"],
    "binding.instances": ["InstanceBinding", "bind_instances"],
    "core.auto_assignment": ["auto_assignment"],
    "core.offsets": ["optimize_offsets"],
    "core.periods": [
        "PeriodAssignment",
        "enumerate_period_assignments",
        "suggest_periods",
    ],
    "core.rc_modulo": ["RCModuloScheduler"],
    "core.result": ["SystemSchedule"],
    "core.scheduler": ["ModuloSystemScheduler"],
    "core.verify": ["verify", "verify_system_schedule"],
    "errors": [
        "BindingError",
        "GraphError",
        "InfeasibleError",
        "PeriodError",
        "ReproError",
        "ResourceError",
        "SchedulingError",
        "SimulationError",
        "SpecificationError",
        "VerificationError",
    ],
    "ir.behavior": ["parse_behavior"],
    "ir.dfg": ["DataFlowGraph"],
    "ir.expr": ["ExprBuilder"],
    "ir.operation": ["OpKind", "Operation"],
    "ir.process": ["Block", "Process", "SystemSpec"],
    "obs.counters": ["Counters"],
    "obs.logconfig": ["configure_logging", "get_logger"],
    "obs.profile": ["render_profile"],
    "obs.tracer": ["NULL_TRACER", "NullTracer", "Tracer"],
    "resources.assignment": ["ResourceAssignment"],
    "resources.library": ["ResourceLibrary", "alu_library", "default_library"],
    "resources.types": ["ResourceType", "resource_type"],
    "rtl.design": ["RTLDesign", "build_rtl"],
    "rtl.verilog": ["emit_verilog"],
    "scheduling.fds": ["ForceDirectedScheduler"],
    "scheduling.forces": ["area_weights", "uniform_weights"],
    "scheduling.ifds": ["ImprovedForceDirectedScheduler"],
    "scheduling.list_scheduling": ["ListScheduler"],
    "scheduling.schedule": ["BlockSchedule"],
    "sim.simulator": ["SystemSimulator"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

__version__ = "1.0.0"
