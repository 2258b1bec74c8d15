"""Exception hierarchy for the GPU-ABiSort reproduction.

All errors raised by :mod:`repro` derive from :class:`ReproError` so that a
caller embedding the library can catch one base class.  The subclasses mirror
the layers of the system:

* :class:`StreamError` -- violations of the stream programming model enforced
  by the simulated stream machine (:mod:`repro.stream`), e.g. scattering from
  a kernel, overlapping substream blocks, or using the same stream as kernel
  input and output on hardware that forbids it.
* :class:`LayoutError` -- an inconsistent substream plan (Table 1 of the
  paper) or an invalid stage/phase/step request.
* :class:`SortInputError` -- invalid sorter input (NaN keys, duplicate ids,
  dtype mismatch, non power-of-two length without padding).
* :class:`EngineError` -- problems at the :mod:`repro.engines` layer
  (unknown backend names, duplicate registrations).
* :class:`CapabilityError` -- a request was dispatched to an engine that
  does not support it (see the per-engine capability flags).
* :class:`ModelError` -- invalid hardware-model configuration in
  :mod:`repro.stream.gpu_model` or :mod:`repro.stream.cache`.
* :class:`ServiceError` / :class:`ServiceOverloadError` -- problems at the
  :mod:`repro.service` layer (misuse of a stopped service; admission
  control rejecting a request because the service is saturated).
* :class:`StoreError` -- problems at the :mod:`repro.store` layer (a
  corrupt or unreadable manifest, a run file that does not match its
  manifest record).
* :class:`ObsError` -- problems at the :mod:`repro.obs` observability
  layer (invalid metric or label names, duplicate registrations,
  malformed exposition or sample records).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class StreamError(ReproError):
    """A stream-programming-model constraint was violated.

    The paper's target architecture (Section 3.2) is "a stream processor with
    the ability to gather but without the ability to scatter"; kernels may
    only write linearly into their output substream and, on GPUs, input and
    output streams must be distinct (Section 6.1).  The stream machine raises
    this error whenever simulated code breaks one of those rules, because a
    real stream program with the same structure could not exist.
    """


class SubstreamError(StreamError):
    """An invalid substream definition (out of range or overlapping blocks)."""


class KernelError(StreamError):
    """A kernel declaration or invocation is malformed.

    Examples: mismatched input stream lengths, an output substream whose
    capacity does not match the number of kernel instances times the per
    instance push count, or a gather access outside stream bounds.
    """


class LayoutError(ReproError):
    """The substream plan (paper Table 1 / Section 5.3) was violated."""


class SortInputError(ReproError):
    """The sorter was given input it cannot handle.

    GPU-ABiSort, like the GPU sorting-network implementations it is compared
    against, requires power-of-two sequence lengths (paper Sections 4 and 9);
    use :func:`repro.workloads.records.pad_to_power_of_two` to pad.
    """


class EngineError(ReproError):
    """A problem at the :mod:`repro.engines` registry/dispatch layer.

    Raised for unknown backend names and invalid registrations.  Capability
    mismatches raise the more specific :class:`CapabilityError`.
    """


class CapabilityError(EngineError):
    """A sort request needs a capability the selected engine lacks.

    Every registered engine declares capability flags (``any_length``,
    ``key_value``, ``out_of_core``, ``stable``).  Dispatching a request the
    engine cannot serve -- e.g. a non-power-of-two input to a sorting-network
    backend -- raises this error; the message names engines that can serve
    the request instead.
    """


class ModelError(ReproError):
    """An invalid hardware model or cost-model configuration."""


class ServiceError(ReproError):
    """A problem at the :mod:`repro.service` layer.

    Raised for lifecycle misuse (submitting to a service that was never
    started, starting one twice) and malformed service requests.  Saturation
    raises the more specific :class:`ServiceOverloadError`.
    """


class ServiceOverloadError(ServiceError):
    """Admission control rejected a request: the service is saturated.

    The bounded intake queue of :class:`repro.service.SortService` was full
    (``max_pending`` requests already queued or in flight).  The caller
    should back off and retry after :attr:`retry_after_ms` milliseconds --
    the NDJSON server forwards the same hint as a ``retry_after_ms`` field
    in its error response.
    """

    def __init__(self, message: str, *, retry_after_ms: float):
        super().__init__(message)
        #: Suggested client back-off before resubmitting, in milliseconds.
        self.retry_after_ms = retry_after_ms


class StoreError(ReproError):
    """A problem at the :mod:`repro.store` persistence layer.

    Raised when a store directory cannot be recovered: the manifest is
    missing a field, carries an unknown format version, or references a
    run file whose on-disk size disagrees with its recorded length.
    Invalid *queries* (bad ranges, negative k) raise the usual
    :class:`SortInputError` instead.
    """


class ObsError(ReproError):
    """A problem at the :mod:`repro.obs` observability layer.

    Raised for invalid metric/label names, duplicate registrations,
    misuse of labelled or callback-backed instruments, malformed
    exposition text handed to the parser, and metrics-NDJSON records
    that fail the sample schema check.
    """
