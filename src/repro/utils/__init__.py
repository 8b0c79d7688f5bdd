"""Utilities over the interval format (paper section 3).

* :mod:`repro.utils.convert` — the convert utility: matches begin/end events
  in raw trace files, splits interrupted calls into begin / continuation /
  end pieces, synthesizes Running states, re-assigns globally unique marker
  identifiers, and writes per-node interval files.
* :mod:`repro.utils.merge` — the merge utility: aligns per-node files by
  their first global-clock records, adjusts local timestamps for drift,
  k-way merges records in end-time order, injects zero-duration continuation
  pseudo-intervals at frame starts, and optionally emits SLOG.
* :mod:`repro.utils.slog` — the SLOG file format (frames, time-based frame
  index, pseudo-intervals, preview state counters) Jumpshot consumes.
* :mod:`repro.utils.statlang` / :mod:`repro.utils.stats` — the declarative
  statistics language and the statistics generation utility.
* :mod:`repro.utils.validate` / :mod:`repro.utils.recover` — the invariant
  checker behind ``ute-validate`` and the salvage-based recovery engine
  behind ``ute-recover``.
"""
