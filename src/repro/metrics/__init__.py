"""Measurement infrastructure: counters, epochs, histograms, reports.

`repro.metrics.report` is imported lazily by its users to keep this
package import-light for the machine substrate.
"""

from repro.metrics.collect import Counters, EpochLog

__all__ = ["Counters", "EpochLog"]
