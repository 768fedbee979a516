"""Which classes are dataclasses, and which are plain result records.

A result record (a report, a histogram, a trial row) is a `NamedTuple`:
it is built faster than a frozen dataclass, both the class at import and
each instance, and it is already a row in field order.  Only the classes
that validate in `__post_init__`, cache with `cached_property`, or are
read on the block sampler's hot path stay dataclasses.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import cafreq

KEPT_DATACLASSES = {
    "rules.LocalRule",
    "measures.ProductMeasure",
    "interval_swap.SwapParams",
    "block_sampler.BlockMeasureParams",
    "block_sampler.BlockSampler",
    "block_sampler._Level",
}

RECORDS = {
    "correlation": ["Histogram", "CorrelationReport", "OneDominationReport",
                    "HighDominationReport", "PrefixSumReport", "ConservationReport"],
    "measures": ["ContractionReport", "BlockEntropyReport"],
    "interval_swap": ["Interval", "IntervalDecomposition", "SwapParamsReport", "SwapStats",
                      "SwapTrial"],
    "block_sampler": ["HierarchicalSample", "CylinderEstimate"],
}


def cafreq_classes():
    """(module name, class) for every class defined in a cafreq module."""
    for info in pkgutil.iter_modules(cafreq.__path__):
        module = importlib.import_module(f"cafreq.{info.name}")
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield info.name, value


def test_only_the_kept_classes_are_dataclasses():
    found = {f"{mod}.{cls.__qualname__}" for mod, cls in cafreq_classes()
             if dataclasses.is_dataclass(cls)}
    assert found == KEPT_DATACLASSES


@pytest.mark.parametrize(
    "module, name", [(mod, name) for mod, names in RECORDS.items() for name in names]
)
def test_record_is_an_immutable_row(module, name):
    cls = getattr(importlib.import_module(f"cafreq.{module}"), name)
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    record = cls._make(range(len(cls._fields)))
    assert tuple(record) == tuple(range(len(cls._fields)))  # the fields, in order
    for field in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, -1)
