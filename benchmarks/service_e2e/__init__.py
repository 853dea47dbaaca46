"""The repository benchmark: acknowledged writes through the document service.

``run.py`` is the entry point; see ``README.md`` for the workloads, the
metric table and the layer-to-end-to-end map.
"""
