"""End-to-end benchmark of the KGNet platform (see ``perfbench/README.md``)."""
