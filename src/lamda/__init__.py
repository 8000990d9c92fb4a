"""Spectrally-initialized low-dimensional adapter toolkit."""

from .adapter import AdapterConfig, AdapterState, LoraState, build_adapter, build_lora
from .allocator import ModuleScore, RankBudget, RankPlan, allocate, score_modules
from .freezing import FreezeSchedule, trainable_rows
from .svd import (SpectralDecomposition, SpectrumSplit, energy_score,
                  split_spectrum, split_spectrum_tail, svd, svd_many)
from .tensor import Tape, Tensor, float_mode, get_float_mode, set_float_mode

__version__ = "0.1.0"
