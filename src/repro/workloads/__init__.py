"""Benchmark workloads: standard HLS graphs and generators."""

from .._lazy import attach
# Bound eagerly: these exports share their submodule's name (see repro._lazy).
from .paper_system import paper_system as paper_system
from .random_dfg import random_dfg as random_dfg

_EXPORTS = {
    "conditional": ["mode_switching_filter"],
    "corpus": [
        "CORPUS_FAMILIES",
        "CorpusInstance",
        "corpus_library",
        "corpus_system",
        "filter_bank",
        "io_kernel",
        "ode_chain",
    ],
    "diffeq": ["differential_equation"],
    "ewf": ["elliptic_wave_filter", "elliptic_wave_filter_split"],
    "fft": ["fft_butterfly_network"],
    "fir": ["fir_filter"],
    "iir": ["iir_biquad_cascade"],
    "lattice": ["ar_lattice"],
    "memory_system": [
        "compute_process",
        "dma_process",
        "memory_library",
        "shared_memory_system",
    ],
    "paper_system": [
        "DEADLINES",
        "PERIOD",
        "paper_assignment",
        "paper_periods",
        "paper_system",
    ],
    "random_dfg": ["random_dfg"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
