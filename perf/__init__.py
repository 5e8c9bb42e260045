"""Host-time benchmark of the Meteor Shower reproduction (see perf/README.md)."""
