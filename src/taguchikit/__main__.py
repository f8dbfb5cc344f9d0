if __name__ == "__main__":
    # A command is one short process: see run(). Switching the collector off
    # before the package imports covers them too; a plain import changes nothing.
    import gc

    gc.disable()  # probe: speed 1.5 ms less CPU a command, in 30 of 40 spawned pairs
    from taguchikit.cli import run

    run()
